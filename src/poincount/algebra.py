"""Exact univariate polynomial and rational-function arithmetic over the rationals.

Everything here is pure and exact: an integral coefficient is stored as an
`int` and any other as a `fractions.Fraction`, equality means identity of
canonical forms, and no floating point is used anywhere (every division
goes through `_div`).  Since `Fraction(3) == 3` with equal hashes and equal
`str`, the int form changes no comparison and no printed output; only
`repr` shows the ints.  This module is the substrate for the
generating-function work in the rest of the package.

It is also the one owner of univariate coefficient-list arithmetic: the
private kernels `_add`, `_mul` and `_pow` work on plain lists (lowest
degree first), and `Polynomial` and `RationalFunction` both run on them.
`_pow` is the Miller recurrence, exact over the integers, and every `**`
takes it: `RationalFunction` on its integer lists, `Polynomial` after
`_integral` has cleared the denominators.

Canonical form of a rational function num/den:

* gcd(num, den) is constant (the quotient is reduced), and
* den(0) = 1 whenever den has a nonzero constant term, otherwise den is monic.

With that convention two rational functions are equal iff their (num, den)
coefficient tuples are equal, and Taylor coefficients at 0 fall out of a
direct linear recurrence whenever den(0) != 0.  A `RationalFunction` does
its arithmetic on unreduced integer quotients and reaches the canonical
form in one place, the `poly_gcd` reduction on the first read of its value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .errors import UsageError

Scalar = Union[int, Fraction]


class UnsupportedArgument(UsageError):
    """Argument outside the supported domain of an operation."""


class PoleAtOrigin(ZeroDivisionError):
    """Rational function has a pole at z = 0, so no Taylor series there."""


def binomial(m: int, k: int) -> int:
    """Binomial coefficient C(m, k) with C(m, k) = 0 for k < 0 or 0 <= m < k.

    Negative m with k >= 0 is outside the supported domain and raises
    UnsupportedArgument.
    """
    if k < 0:
        return 0
    if m < 0:
        raise UnsupportedArgument(f"binomial({m}, {k}): negative upper argument")
    return math.comb(m, k)


def _scalar(value: Scalar) -> Scalar:
    """`value` as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _div(a: Scalar, b: Scalar) -> Scalar:
    """Exact a / b; two ints never meet the float division."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _integral(coeffs: Sequence[Scalar]) -> tuple[int, list[int]]:
    """(s, ints) with s the lcm of the coefficients' denominators and
    ints = s * coeffs, all integers (s = 1 for no coefficients)."""
    # Lists, not generators, under *: a generator is packed into resized
    # tuples that pile up in the interpreter's tuple free lists.
    scale = math.lcm(*[c.denominator for c in coeffs])
    return scale, [c.numerator * (scale // c.denominator) for c in coeffs]


def _add(a: Sequence[Scalar], b: Sequence[Scalar]) -> list[Scalar]:
    """a + b on coefficient lists, without trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return out


def _mul(a: Sequence[Scalar], b: Sequence[Scalar]) -> list[Scalar]:
    """a * b on coefficient lists (without trailing zeros when a and b are)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pow(a: list[int], e: int) -> list[int]:
    """a^e for e >= 0, by the recurrence k a_0 q_k = sum_{j>=1} ((e+1)j - k) a_j q_(k-j)
    that q = a^e satisfies (from a q' = e a' q): each division is exact, and
    the cost is deg(q) times the number of terms of a."""
    if not e:
        return [1]
    if not a:
        return []
    shift = next(i for i, c in enumerate(a) if c)  # a = z^shift * (a_0 + ...)
    a = a[shift:]
    taps = [(j, c) for j, c in enumerate(a) if j and c]
    q = [a[0] ** e]
    for k in range(1, (len(a) - 1) * e + 1):
        acc = sum(((e + 1) * j - k) * c * q[k - j] for j, c in taps if j <= k)
        q.append(acc // (k * a[0]))
    return [0] * (shift * e) + q


class Polynomial:
    """Dense univariate polynomial with rational coefficients.

    Immutable.  Each coefficient is an int when it is integral and a
    Fraction otherwise.  The zero polynomial has an empty coefficient tuple
    and degree -1; otherwise the leading coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is int else _scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, degree: int, coeff: Scalar = 1) -> "Polynomial":
        if degree < 0:
            raise UnsupportedArgument("monomial degree must be >= 0")
        return cls((0,) * degree + (coeff,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    # -- basic structure ----------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> Scalar:
        if not self.coeffs:
            raise UnsupportedArgument("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Scalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Polynomial", self.coeffs))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return Polynomial(_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([other * a for a in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        """self^exponent as (ints / s)^exponent, with `_pow` on the integers."""
        if not isinstance(exponent, int) or exponent < 0:
            raise UnsupportedArgument("polynomial exponent must be a nonnegative int")
        scale, ints = _integral(self.coeffs)
        den = scale**exponent
        return Polynomial([_div(c, den) for c in _pow(ints, exponent)])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.leading()
        return Polynomial([_div(c, lead) for c in self.coeffs])

    def evaluate(self, x: Scalar) -> Fraction:
        """p(x) by Horner over the integers.  With the coefficients n_i / s
        over their common denominator and x = a / b, the steps
        acc = acc * a + n_i * b^(d - i) end at s * b^d * p(x)."""
        x = _scalar(x)
        if not self.coeffs:
            return Fraction(0)
        a, b = x.numerator, x.denominator
        s, ints = _integral(self.coeffs)
        acc, power = 0, 1
        for n in reversed(ints):
            acc = acc * a + n * power
            power *= b
        return Fraction(acc, s * power // b)

    # -- display --------------------------------------------------------

    def format(self, var: str = "z") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                power = var if k == 1 else f"{var}^{k}"
                term = f"{mag}{power}"
                if c < 0:
                    term = "-" + term
            if not parts:
                parts.append(term)
            elif term.startswith("-"):
                parts.append("- " + term[1:])
            else:
                parts.append("+ " + term)
        return " ".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def _coerce_poly(value) -> Polynomial | None:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return None


def _primitive(coeffs: Sequence[Scalar]) -> list[int]:
    """The integer polynomial with content 1 that is a rational multiple of
    the nonzero polynomial `coeffs`."""
    ints = _integral(coeffs)[1]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of a mod b, for len(a) >= len(b) >= 2."""
    a = list(a)
    lead_b = b[-1]
    while len(a) >= len(b):
        g = math.gcd(a[-1], lead_b)
        scale_a, scale_b = lead_b // g, a[-1] // g
        shift = len(a) - len(b)
        a = [scale_a * c for c in a]
        for j, c in enumerate(b):
            a[shift + j] -= scale_b * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _gcd(a: Sequence[Scalar], b: Sequence[Scalar]) -> list[int]:
    """A gcd of two nonzero coefficient lists, as integers with content 1.

    A primitive remainder sequence over the integers: both inputs are
    scaled to integer polynomials with content 1, and each pseudo-remainder
    is divided by its content, so no Fraction arithmetic runs and the
    coefficients stay small.
    """
    u, v = _primitive(a), _primitive(b)
    if len(u) < len(v):
        u, v = v, u
    while v:
        if len(v) == 1:
            return [1]
        r = _pseudo_remainder(u, v)
        u, v = v, (_primitive(r) if r else [])
    return u


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over the rationals, by `_gcd`; gcd(0, 0) = 0."""
    if b.is_zero():
        return a.monic()
    if a.is_zero():
        return b.monic()
    return Polynomial(_gcd(a.coeffs, b.coeffs)).monic()


class RationalFunction:
    """Quotient of two Polynomials, read in canonical (reduced, normalized) form.

    The value is held as integer coefficient lists (num, den), which the
    arithmetic leaves unreduced.  The first read of `num`, `den`, `==`,
    `hash`, `series`, `format` or `repr` reduces them once, and the reduced
    lists replace them.  The reduction is deterministic, so two threads that
    race on it only repeat it.
    """

    __slots__ = ("_q",)  # (num ints, den ints, (num, den) canonical or None)

    def __init__(self, num, den=1):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if num is None or den is None:
            raise TypeError("num/den must be Polynomial, int or Fraction")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        s, n = _integral(num.coeffs)
        t, d = _integral(den.coeffs)
        if s != t:  # (n / s) / (d / t) = (t n) / (s d)
            n, d = [t * c for c in n], [s * c for c in d]
        _store(self, (n, d, None))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RationalFunction is immutable")

    def _canon(self) -> tuple[Polynomial, Polynomial]:
        """(num, den) with the gcd divided out and den(0) = 1, or den monic
        when den(0) = 0; computed on the first read, then kept."""
        n, d, canon = self._q
        if canon is None:
            if not n:
                d, canon = [1], (Polynomial.zero(), Polynomial.one())
            else:
                g = poly_gcd(Polynomial(n), Polynomial(d))
                if g.degree > 0:
                    g = _primitive(g.coeffs)
                    n, d = _exact_quotient(n, g), _exact_quotient(d, g)
                c = d[0] or d[-1]
                canon = Polynomial(n), Polynomial(d)
                if c != 1:
                    canon = Polynomial([_div(x, c) for x in n]), Polynomial([_div(x, c) for x in d])
            _store(self, (n, d, canon))  # one store: never half old
        return canon

    @property
    def num(self) -> Polynomial:
        return (self._q[2] or self._canon())[0]

    @property
    def den(self) -> Polynomial:
        return (self._q[2] or self._canon())[1]

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalFunction":
        return _quotient([], [1])

    @classmethod
    def one(cls) -> "RationalFunction":
        return _quotient([1], [1])

    @classmethod
    def z(cls) -> "RationalFunction":
        return _quotient([0, 1], [1])

    @classmethod
    def from_scalar(cls, c: Scalar) -> "RationalFunction":
        c = c if type(c) is int else _scalar(c)
        return _quotient([c.numerator] if c else [], [c.denominator])

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._q[0]

    def __eq__(self, other) -> bool:
        if type(other) is not RationalFunction:
            other = _coerce_ratfun(other)
            if other is None:
                return NotImplemented
        return self._canon() == other._canon()

    def __hash__(self) -> int:
        num, den = self._canon()
        return hash(("RationalFunction", num.coeffs, den.coeffs))

    # -- arithmetic on the unreduced lists ---------------------------------

    def __add__(self, other) -> "RationalFunction":
        if type(other) is not RationalFunction:
            other = _coerce_ratfun(other)
            if other is None:
                return NotImplemented
        (a, b, _), (c, d, _) = self._q, other._q
        if b == d:
            return _quotient(_add(a, c), b)
        return _quotient(_add(_mul(a, d), _mul(c, b)), _mul(b, d))

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        n, d, _ = self._q
        return _quotient([-c for c in n], d)

    def __sub__(self, other) -> "RationalFunction":
        if type(other) is not RationalFunction:
            other = _coerce_ratfun(other)
            if other is None:
                return NotImplemented
        return self + -other

    def __rsub__(self, other) -> "RationalFunction":
        other = _coerce_ratfun(other)
        if other is None:
            return NotImplemented
        return other + -self

    def __mul__(self, other) -> "RationalFunction":
        if type(other) is not RationalFunction:
            other = _coerce_ratfun(other)
            if other is None:
                return NotImplemented
        (a, b, _), (c, d, _) = self._q, other._q
        return _quotient(_mul(a, c), _mul(b, d))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        if type(other) is not RationalFunction:
            other = _coerce_ratfun(other)
            if other is None:
                return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        (a, b, _), (c, d, _) = self._q, other._q
        return _quotient(_mul(a, d), _mul(b, c))

    def __rtruediv__(self, other) -> "RationalFunction":
        other = _coerce_ratfun(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int) -> "RationalFunction":
        if not isinstance(exponent, int):
            raise UnsupportedArgument("rational-function exponent must be an int")
        n, d, _ = self._q
        if exponent < 0:
            if not n:
                raise ZeroDivisionError("negative power of zero")
            n, d, exponent = d, n, -exponent
        return _quotient(_pow(n, exponent), _pow(d, exponent))

    # -- analysis ---------------------------------------------------------

    def series(self, order: int) -> tuple[Scalar, ...]:
        """The order + 1 Taylor coefficients for z^0..z^order at z = 0, by the
        den * series = num recurrence: ints where integral and Fractions
        otherwise, as in Polynomial.

        Canonical form gives den(0) = 1 whenever there is no pole at 0, so the
        recurrence divides by nothing, and it runs on ints wherever the
        coefficients are integral.
        """
        if order < 0:
            raise UnsupportedArgument("series order must be >= 0")
        num, den = self._canon()
        if den.coefficient(0) == 0:
            raise PoleAtOrigin("pole at z = 0")
        num = num.coeffs
        taps = [(j, c) for j, c in enumerate(den.coeffs) if j and c]
        out = []
        for k in range(order + 1):
            acc = num[k] if k < len(num) else 0
            for j, c in taps:
                if j > k:
                    break
                acc -= c * out[k - j]
            out.append(acc)
        return tuple([c if type(c) is int else _scalar(c) for c in out])

    def coefficient(self, k: int) -> Scalar:
        """The z^k Taylor coefficient at 0 (k >= 0)."""
        if k < 0:
            raise UnsupportedArgument("coefficient index must be >= 0")
        return self.series(k)[k]

    # -- display -----------------------------------------------------------

    def format(self, var: str = "z") -> str:
        num, den = self._canon()
        if den == Polynomial.one():
            return num.format(var)
        return f"({num.format(var)}) / ({den.format(var)})"

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"


def _quotient(num: list[int], den: list[int]) -> RationalFunction:
    """num/den from integer lists without trailing zeros (den nonzero),
    taken as they are: the constructor for results of the arithmetic."""
    f = object.__new__(RationalFunction)
    _store(f, (num, den, None))
    return f


#: The `_q` slot's own setter: past the immutability guard, and faster
#: than object.__setattr__ on the parse's many intermediate values.
_store = RationalFunction._q.__set__


def _coerce_ratfun(value) -> RationalFunction | None:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        s, n = _integral(value.coeffs)
        return _quotient(n, [s])
    if isinstance(value, (int, Fraction)):
        return RationalFunction.from_scalar(value)
    return None


def _exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b over the integers when b (primitive) divides a, else None.

    By Gauss's lemma a primitive b divides a over the rationals exactly when
    every quotient coefficient is an integer, so the first step whose leading
    term does not divide exactly decides.
    """
    rem = a[:]
    db, lead = len(b) - 1, b[-1]
    lower = list(enumerate(b[:db]))  # the leading term cancels by construction
    quot = [0] * (len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[i + db], lead)
        if r:
            return None
        if c:
            quot[i] = c
            for j, x in lower:
                rem[i + j] -= c * x
    return None if any(rem[:db]) else quot


def split_factor(poly: Polynomial, factor: Polynomial) -> tuple[int, Polynomial]:
    """(m, residual) with poly = factor^m * residual and factor not dividing
    residual; the zero polynomial gives (0, 0).

    `poly` is scaled to integers once and divided by the primitive part of
    `factor` over the integers; the residual is scaled back once at the end.
    """
    if factor.is_constant():
        raise UnsupportedArgument("factor must be non-constant")
    if poly.is_zero():
        return 0, poly
    scale, ints = _integral(poly.coeffs)
    prim = _primitive(factor.coeffs)
    count = 0
    while (q := _exact_quotient(ints, prim)) is not None:
        ints = q
        count += 1
    if not count:
        return 0, poly
    # factor = unit * prim, so poly = factor^count * ints / (scale * unit^count)
    den = scale * _div(factor.leading(), prim[-1]) ** count
    return count, Polynomial(ints if den == 1 else [_div(c, den) for c in ints])


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> Polynomial:
    """The m-th cyclotomic polynomial (monic, integer coefficients): z^m - 1
    over the Phi_d of the proper divisors d of m, each monic and so
    primitive, divided out over the integers by _exact_quotient."""
    if m < 1:
        raise UnsupportedArgument("cyclotomic index must be >= 1")
    result = [-1] + [0] * (m - 1) + [1]  # z^m - 1
    for d in range(1, m):
        if m % d == 0:
            result = _exact_quotient(result, cyclotomic(d).coeffs)
    return Polynomial(result)


def _euler_phi(m: int) -> int:
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def cyclotomic_factors(poly: Polynomial) -> list[tuple[int, Polynomial, int]]:
    """The cyclotomic factors (index, polynomial, multiplicity) of poly other
    than 1 - z, whose multiplicity `split_factor` gives.

    Every Phi_m with m >= 2 is self-reciprocal, so it divides
    S = gcd(R, z^deg(R) R(1/z)), with R the square-free part of poly with
    its factors z taken out.  The Phi_m found are distinct divisors of S, so
    their degrees phi(m) add up to at most deg S; phi(m) >= sqrt(m/2) bounds
    the scan at 2*deg(S)^2 + 2.
    """
    out = []
    if poly.degree < 1:
        return out
    ints = _integral(poly.coeffs)[1]
    ints = ints[next(i for i, c in enumerate(ints) if c) :]
    if len(ints) < 2:
        return out
    square_free = _exact_quotient(ints, _gcd(ints, [i * c for i, c in enumerate(ints)][1:]))
    left = bound = len(_gcd(square_free, square_free[::-1])) - 1
    remaining = poly
    for m in range(2, 2 * bound * bound + 3):
        if not left:
            break
        degree = _euler_phi(m)
        if degree > left:
            continue
        phi = cyclotomic(m)
        mult, remaining = split_factor(remaining, phi)
        if mult > 0:
            out.append((m, phi, mult))
            left -= degree
    return out


ONE_MINUS_Z = Polynomial((1, -1))
