"""Sparse multivariate polynomials over the rationals, and exact rank.

A polynomial maps monomials to Fraction coefficients; a monomial is a
sorted tuple of (variable index, exponent) pairs, so the variable universe
can grow without rewriting keys.  `Poly` is the one polynomial class of the
jet leg; it divides by nonzero constants only (a negative power is one over
the positive power, under the same rule), so parsing a generator component
into it rejects any non-constant divisor.  Everything is exact; these are
the workhorses of the jet-prolongation engine, where expressions live in a
few dozen jet coordinates and stay small.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import _primitive

Monomial = tuple[tuple[int, int], ...]

_ZERO = Fraction(0)


class NonConstantDivisor(ValueError):
    """A polynomial was divided by a non-constant polynomial."""


class Poly:
    """Sparse polynomial: {monomial: coefficient}, zero terms never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        cleaned = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    cleaned[mono] = coeff
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls({(): Fraction(value)})

    @classmethod
    def variable(cls, var: int) -> "Poly":
        return cls({((var, 1),): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[int]:
        seen: set[int] = set()
        for mono in self.terms:
            for var, _ in mono:
                seen.add(var)
        return seen

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono, _ZERO) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _wrap({mono: -coeff for mono, coeff in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Poly.zero()
            return _wrap({mono: c * coeff for mono, coeff in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mul_monomials(m1, m2)
                acc = out.get(mono, _ZERO) + c1 * c2
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        return _wrap(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        """Division by a nonzero constant; other divisors are refused."""
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            raise ZeroDivisionError("division by zero expression")
        if other.variables():
            raise NonConstantDivisor("division by a non-constant polynomial")
        return self * (1 / other.terms[()])

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int):
            raise ValueError("polynomial exponent must be an int")
        if exponent < 0:
            return Poly.constant(1) / self**-exponent
        result = Poly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def diff(self, var: int) -> "Poly":
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            for idx, (v, e) in enumerate(mono):
                if v == var:
                    if e == 1:
                        new = mono[:idx] + mono[idx + 1 :]
                    else:
                        new = mono[:idx] + ((v, e - 1),) + mono[idx + 1 :]
                    acc = out.get(new, _ZERO) + coeff * e
                    if acc:
                        out[new] = acc
                    else:
                        out.pop(new, None)
                    break
        return _wrap(out)

    def evaluate(self, values: Mapping[int, Fraction]) -> Fraction:
        total = _ZERO
        for mono, coeff in self.terms.items():
            term = coeff
            for var, exp in mono:
                v = values.get(var)
                if v is None:
                    raise KeyError(f"no value for variable #{var}")
                if v == 0:
                    term = _ZERO
                    break
                term *= v**exp
            total += term
        return total

    def substitute(self, values: Mapping[int, "Poly"]) -> "Poly":
        """Replace the given variables by polynomials, keeping the rest."""
        out = Poly.zero()
        for mono, coeff in self.terms.items():
            term = _wrap({tuple((v, e) for v, e in mono if v not in values): coeff})
            for var, exp in mono:
                if var in values:
                    term = term * values[var] ** exp
            out = out + term
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        bits = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            factors = [f"v{var}^{exp}" if exp > 1 else f"v{var}" for var, exp in mono]
            bits.append(f"{c}*" + "*".join(factors) if factors else str(c))
        return "Poly(" + " + ".join(bits) + ")"


def _wrap(terms: dict[Monomial, Fraction]) -> Poly:
    p = Poly.__new__(Poly)
    object.__setattr__(p, "terms", terms)
    return p


def _coerce(value) -> Poly | None:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value)
    return None


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for var, exp in b:
        merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a matrix of rationals (the one-cut case of rank_profile)."""
    return rank_profile(rows, [len(rows[0]) if rows else 0])[0]


def rank_profile(rows: Sequence[Sequence[Fraction]], cuts: Sequence[int]) -> list[int]:
    """Exact ranks of the leading column blocks row[:cut], cuts ascending.

    Rows of ints or Fractions, taken as given, are scaled to content-1
    integer rows by `algebra._primitive` (rank-preserving), then reduced
    column by column by the Bareiss one-step method, which keeps all
    intermediate entries integral and of moderate size.  Row operations act on every leading block alike, so
    the pivots found left of a cut are the rank of that block: one pass
    gives the whole profile.
    """
    width = cuts[-1] if cuts else 0
    mat: list[list[int]] = []
    for row in rows:
        row = row[:width]
        if any(row):
            mat.append(_primitive(row))
    n_rows = len(mat)
    rank = 0
    prev = 1
    col = 0
    profile = []
    for cut in cuts:
        while col < cut and rank < n_rows:
            pivot_row = next((r for r in range(rank, n_rows) if mat[r][col] != 0), None)
            if pivot_row is not None:
                mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
                piv = mat[rank][col]
                for r in range(rank + 1, n_rows):
                    for c in range(col + 1, width):
                        mat[r][c] = (mat[r][c] * piv - mat[r][col] * mat[rank][c]) // prev
                    mat[r][col] = 0
                prev = piv
                rank += 1
            col += 1
        profile.append(rank)
    return profile
