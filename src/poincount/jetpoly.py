"""Sparse multivariate polynomials with exact coefficients, and exact rank.

A polynomial maps monomials to coefficients, each an int when it is
integral and a Fraction otherwise; a monomial is a sorted tuple of
(variable index, exponent) pairs, so the variable universe can grow
without rewriting keys.  Arithmetic on int coefficients stays on ints, so
an integral polynomial never builds a Fraction; construction, constants,
and scalar products and quotients store an integral value as an int.
`Poly` is the one polynomial class of the jet leg; it divides by nonzero
constants only (a negative power is one over the positive power, under
the same rule), so parsing a generator component into it rejects any
non-constant divisor.  The jet engine builds its row forms by expanding
the parsed components term by term, with no polynomial product,
substitution or derivative.

Rank is a sparse integer echelon over {column: int} rows, the format the
jet engine's `prolong` emits: each row is made content 1 and inserted,
reduced against the pivots already held, so zero entries cost nothing
and no rational arithmetic is done.  Rows go in by descending leading
column, and of two rows that meet at a lead the one with fewer entries
is kept as the pivot.  The ranks of the leading column blocks, one per
jet order, are read off one echelon: the rank below a cut is the number
of pivots leading there (`rank_profile`).  Everything is exact; these
are the workhorses of the jet-prolongation engine, where expressions
live in a few dozen jet coordinates and stay small.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .algebra import Scalar, _scalar

Monomial = tuple[tuple[int, int], ...]


class NonConstantDivisor(ValueError):
    """A polynomial was divided by a non-constant polynomial."""


class Poly:
    """Sparse polynomial: {monomial: coefficient}, zero terms never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        cleaned = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    cleaned[mono] = _scalar(coeff)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls({(): value})

    @classmethod
    def variable(cls, var: int) -> "Poly":
        return cls({((var, 1),): 1})

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
        _accumulate(out, other.terms)
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
            return Poly({mono: other * coeff for mono, coeff in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mul_monomials(m1, m2)
                acc = out.get(mono, 0) + c1 * c2
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
        return self * (1 / Fraction(other.terms[()]))

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

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        bits = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            factors = [f"v{var}^{exp}" if exp > 1 else f"v{var}" for var, exp in mono]
            bits.append(f"{c}*" + "*".join(factors) if factors else str(c))
        return "Poly(" + " + ".join(bits) + ")"


def _wrap(terms: dict[Monomial, Scalar]) -> Poly:
    p = Poly.__new__(Poly)
    object.__setattr__(p, "terms", terms)
    return p


def _coerce(value) -> Poly | None:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value)
    return None


def _accumulate(out: dict[Monomial, Scalar], terms: Mapping[Monomial, Scalar]) -> None:
    """Add `terms` into `out` in place, dropping the coefficients that cancel."""
    for mono, coeff in terms.items():
        acc = out.get(mono, 0) + coeff
        if acc:
            out[mono] = acc
        else:
            out.pop(mono, None)


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for var, exp in b:
        merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


def matrix_rank(rows: Iterable[Mapping[int, int]], width: int) -> int:
    """Exact rank of the sparse integer rows over columns 0..width-1 (the
    one-cut case of rank_profile)."""
    return rank_profile(rows, [width])[0]


def rank_profile(rows: Iterable[Mapping[int, int]], cuts: Sequence[int]) -> list[int]:
    """Exact ranks of the leading column blocks of {column: int} rows, the
    columns below each cut; the cuts must be ascending (equal cuts are
    allowed and give an empty block).

    One `_echelon` of the rows cut below the last cut, and the number of
    pivots leading below each cut.  Every row reduces to a combination of
    the pivots, so cut below c they span the rows cut below c.  There the
    pivots leading at or past c vanish, having no entry left of their
    lead, and those leading below c stay independent, their leads being
    distinct columns.  So the rank below c is the number of leads below c.
    """
    leads = sorted(_echelon(rows, cuts[-1] if cuts else 0))
    return [bisect_left(leads, cut) for cut in cuts]


def _echelon(rows: Iterable[Mapping[int, int]], width: int) -> dict[int, dict[int, int]]:
    """Row-insertion echelon of sparse integer rows cut to the columns
    below `width`: {leading column: pivot row}.

    Each row is a {column: int} dict; its zero entries are dropped with
    its columns at or beyond `width`.  Scaling a row leaves the rank as it
    is, so the caller may hand any integer multiple of a rational row.
    The cut rows go in by descending leading column (a stable sort, so
    the result depends on the given order only), and each one's content
    is divided out.  While a pivot leads in the row's leading column, the
    one of the two with fewer entries is kept as that pivot, the other
    goes on reducing: both are scaled to the same entry there (by
    lcm/gcd) and subtracted, which clears that column and may fill in
    columns right of it, and the content is divided out.  Otherwise the
    row is stored as the pivot of its leading column; a row reduced to
    nothing was dependent.  Exact integers throughout.
    """
    cut = []
    for row in rows:
        reduced = {col: c for col, c in row.items() if col < width and c}
        if reduced:
            cut.append((min(reduced), reduced))
    cut.sort(key=lambda item: item[0], reverse=True)
    pivots: dict[int, dict[int, int]] = {}
    for lead, reduced in cut:
        content = math.gcd(*reduced.values())
        if content > 1:
            reduced = {col: c // content for col, c in reduced.items()}
        while reduced:
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = reduced
                break
            if len(pivot) > len(reduced):
                pivots[lead], reduced, pivot = reduced, pivot, reduced
            g = math.gcd(reduced[lead], pivot[lead])
            scale, pivot_scale = pivot[lead] // g, reduced[lead] // g
            reduced = {col: scale * c for col, c in reduced.items()}
            for col, c in pivot.items():
                acc = reduced.get(col, 0) - pivot_scale * c
                if acc:
                    reduced[col] = acc
                else:
                    del reduced[col]
            if reduced:
                lead = min(reduced)
                content = math.gcd(*reduced.values())
                if content > 1:
                    reduced = {col: c // content for col, c in reduced.items()}
    return pivots
