"""Eventually-polynomial counting sequences and their generating functions.

A HilbertSpec describes an integer sequence h(k) that agrees with a fixed
polynomial tail(k) for all k >= tail_start, with finitely many exceptional
low-order values.  Both directions of the dictionary are exact:

* gf_from_hilbert turns a spec into the rational function sum h(k) z^k,
* spec_from_gf recovers the spec from a rational function whose only pole
  is at z = 1, by finite-difference stabilization of the Taylor coefficients.

A spec's tail is given by its integer values at tail_start, tail_start + 1,
..., and held as its integer Newton row at tail_start, which every value,
the generating function and equality read.  Specs are kept canonical
(minimal tail_start, exceptions only where they differ from zero), so
equality of specs is plain structural equality.  The tail as a Polynomial
is derived from the row each time it is read, for display.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence, Tuple

from .algebra import (
    ONE_MINUS_Z,
    Polynomial,
    RationalFunction,
    Scalar,
    _add,
    _div,
    _mul,
    split_factor,
)
from .errors import UsageError


class NotEventuallyPolynomial(UsageError):
    """The generating function has a unit-circle pole away from z = 1."""


class HorizonTooShort(UsageError):
    """Tail stabilization was not observed within the confirmation horizon."""


def _newton_row(values: Sequence[int]) -> list[int]:
    """[Delta^j values at 0 for j = 0..len(values) - 1] without its trailing
    zeros, from one pass down the difference table."""
    row, out = list(values), []
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    while out and not out[-1]:
        out.pop()
    return out


def _is_count_type(v) -> bool:
    """v is an int and not a bool, which Python counts as an int."""
    return isinstance(v, int) and not isinstance(v, bool)


class HilbertSpec:
    """Eventually-polynomial sequence: exceptional values plus a tail polynomial.

    h(k) = exceptions[k] if present, else 0 for k < tail_start, else tail(k).
    Construction canonicalizes: tail_start is pulled down as far as the values
    allow and exceptions store only nonzero values below it.

    The tail is given as the list (or tuple) of its integer values at
    tail_start, tail_start + 1, ..., which gives the polynomial of degree
    below the list's length through them; the empty list is the zero tail.
    The values are reduced to the one datum the spec keeps, the Newton row
    of integers c_j = Delta^j tail(tail_start) for j = 0..deg, without
    trailing zeros (the zero tail keeps c_0 = 0).  So
    tail(k) = sum_j c_j C(k - tail_start, j), `values` rolls the row
    forward by integer additions alone, and the Polynomial `tail` is built
    from the row each time it is read.

    Every tail value is certified a nonnegative integer at construction.
    Integer values at deg + 1 consecutive points make the tail
    integer-valued.  Once every c_j >= 0, every later value is a sum of
    nonnegative terms; until then the row is rolled forward one k at a
    time, and a negative row[0] is the first negative value.  The roll
    ends, since a negative leading c_deg drives row[0] below zero and a
    positive one makes every entry positive.
    """

    __slots__ = ("exceptions", "tail_start", "_newton")

    def __init__(
        self,
        exceptions: Mapping[int, int] | None = None,
        tail_start: int = 0,
        tail: Sequence[int] = (),
    ):
        if tail_start < 0:
            raise ValueError("tail_start must be >= 0")
        exc = dict(exceptions or {})
        for k, v in exc.items():
            if k < 0 or k >= tail_start:
                raise ValueError(f"exceptional index {k} must lie in [0, tail_start)")
            if not _is_count_type(v) or v < 0:
                raise ValueError(f"h({k}) = {v!r} is not a nonnegative integer")
        if not isinstance(tail, (list, tuple)):
            raise TypeError(
                f"tail must be a list or tuple of its integer values, not {type(tail).__name__}"
            )
        for k, v in enumerate(tail, tail_start):
            if not _is_count_type(v):
                raise ValueError(f"tail({k}) = {v} is not a nonnegative integer")
        newton = _newton_row(tail) or [0]
        row, k = newton[:], tail_start
        while min(row) < 0:
            if row[0] < 0:
                raise ValueError(f"tail({k}) = {row[0]} is not a nonnegative integer")
            for j in range(len(row) - 1):
                row[j] += row[j + 1]
            k += 1

        # Canonicalize: extend the tail downwards over matching values, then
        # record only the nonzero leftovers as exceptions.  One step down
        # maps c_j to c_j - Delta^(j+1) tail(start - 1), highest j first.
        start = tail_start
        while start > 0:
            below = newton[:]
            for j in range(len(below) - 2, -1, -1):
                below[j] -= below[j + 1]
            if exc.get(start - 1, 0) != below[0]:
                break
            start, newton = start - 1, below
        cleaned = {k: exc[k] for k in range(start) if exc.get(k, 0) != 0}

        object.__setattr__(self, "exceptions", cleaned)
        object.__setattr__(self, "tail_start", start)
        object.__setattr__(self, "_newton", tuple(newton))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("HilbertSpec is immutable")

    @property
    def tail(self) -> Polynomial:
        """The tail polynomial sum_j c_j C(k - tail_start, j), built from the
        Newton row on each read.  With D = deg(tail), the sum
        D! tail = sum_j c_j (D!/j!) prod_{i<j} (k - tail_start - i) is taken
        over the integers and divided by D! once."""
        scale = math.factorial(len(self._newton) - 1)
        acc, falling, weight = [], [1], scale
        for j, c in enumerate(self._newton):
            if j:
                falling = _mul(falling, [1 - j - self.tail_start, 1])
                weight //= j
            acc = _add(acc, [c * weight * f for f in falling])
        return Polynomial([_div(a, scale) for a in acc])

    def values(self, k_max: int) -> list[int]:
        """h(0), ..., h(k_max)."""
        out = [self.exceptions.get(k, 0) for k in range(min(k_max + 1, self.tail_start))]
        row = list(self._newton)
        last = len(row) - 1
        for _ in range(self.tail_start, k_max + 1):
            out.append(row[0])
            for j in range(last):
                row[j] += row[j + 1]
        return out

    def shift_down(self, m: int = 1) -> "HilbertSpec":
        """The spec of k -> h(k + m)."""
        if m < 0:
            raise ValueError("shift must be >= 0")
        exc = {k - m: v for k, v in self.exceptions.items() if k >= m}
        start = max(self.tail_start - m, 0)
        first = start + m  # >= tail_start, so h(first), ... are tail values
        return HilbertSpec(exc, start, self.values(first + len(self._newton) - 1)[first:])

    def __eq__(self, other) -> bool:
        if isinstance(other, HilbertSpec):
            return (
                self.exceptions == other.exceptions
                and self.tail_start == other.tail_start
                and self._newton == other._newton
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash(
            (
                "HilbertSpec",
                tuple(sorted(self.exceptions.items())),
                self.tail_start,
                self._newton,
            )
        )

    def __repr__(self) -> str:
        return (
            f"HilbertSpec(exceptions={self.exceptions!r}, "
            f"tail_start={self.tail_start}, tail={self.tail.format('k')!r})"
        )


def gf_from_hilbert(spec: HilbertSpec) -> RationalFunction:
    """The exact rational function sum_k h(k) z^k.

    With D the length of the tail's Newton row (deg(tail) + 1), or 0 for
    the zero tail, the D-th differences of the tail vanish, so
    N(z) = (1-z)^D sum_k h(k) z^k is a polynomial of degree below
    tail_start + D with the integer coefficients
    N_i = sum_{j <= min(i, D)} (-1)^j C(D, j) h(i - j).  The result is
    N / (1-z)^D, built from the two integer lists and reduced, like any
    RationalFunction, when it is first read.
    """
    D = len(spec._newton) if spec._newton[-1] else 0
    h = spec.values(spec.tail_start + D - 1)
    den = [(-1) ** j * math.comb(D, j) for j in range(D + 1)]
    num = _mul(den, h)[: len(h)]
    return RationalFunction(Polynomial(num), Polynomial(den))


def hilbert_values_spec(values: Sequence[int], confirm: int = 3) -> HilbertSpec:
    """Fit an eventually-polynomial spec to explicit sequence values.

    Finds the smallest difference order d whose d-th differences vanish on a
    suffix of length at least d + confirm (one forward difference of the
    data per order), and hands the d values from the onset to HilbertSpec as
    its tail values: they fix the tail of degree <= d-1, and HilbertSpec
    canonicalizes.  The default confirm = 3 serves catalog and plan data;
    confirm = 1 accepts a constant tail once three equal trailing values
    show it, the rule of the jet strata table.
    Raises HorizonTooShort when no order stabilizes within the data.
    """
    n = len(values)
    d, diffs = 0, list(values)
    while n - d >= d + confirm:
        j = len(diffs)
        while j > 0 and diffs[j - 1] == 0:
            j -= 1
        if len(diffs) - j >= d + confirm:
            onset = j
            exc = {k: values[k] for k in range(onset) if values[k] != 0}
            spec = HilbertSpec(exc, onset, list(values[onset : onset + d]))
            if spec.values(n - 1) != list(values):  # pragma: no cover - fit is exact
                raise HorizonTooShort("tail fit fails to reproduce the data")
            return spec
        d, diffs = d + 1, [b - a for a, b in zip(diffs, diffs[1:])]
    raise HorizonTooShort(
        f"no difference order stabilizes within {n} values; extend k_max"
    )


def spec_from_gf(f: RationalFunction, k_confirm: int) -> HilbertSpec:
    """Recover the HilbertSpec of a rational function whose only pole is z = 1.

    The pole order d bounds the tail degree by d - 1; d-th finite differences
    of the Taylor coefficients must vanish on a suffix (d + 3 consecutive
    zeros required) before the tail is declared.  The result is verified
    against every coefficient up to k_confirm and must round-trip through
    gf_from_hilbert exactly, otherwise the horizon is deemed too short.
    """
    d, residual = split_factor(f.den, ONE_MINUS_Z)
    if residual.degree > 0:
        raise NotEventuallyPolynomial(
            f"denominator has a factor besides (1 - z)^d: {residual}"
        )
    series = f.series(k_confirm)
    values = []
    for c in series:
        if c.denominator != 1:
            raise NotEventuallyPolynomial(f"non-integer coefficient {c}")
        values.append(int(c))
    spec = hilbert_values_spec(values)
    if gf_from_hilbert(spec) != f:
        raise HorizonTooShort(
            f"fitted tail does not reproduce the generating function at K={k_confirm}"
        )
    return spec


def equal_series(
    f: RationalFunction, spec: HilbertSpec, k_max: int
) -> Optional[Tuple[int, int, Scalar]]:
    """The first (k, h(k), coefficient) with k <= k_max where the Taylor
    coefficient of f differs from the spec's value, or None."""
    series = f.series(k_max)
    for k, (got, expected) in enumerate(zip(series, spec.values(k_max))):
        if got != expected:
            return k, expected, got
    return None
