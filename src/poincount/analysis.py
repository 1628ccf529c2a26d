"""Pole analysis of counting functions: functional dimension and rank.

For a counting function P the pole order d at z = 1 is the functional
dimension (moduli depend on d arguments) and sigma = lim (1-z)^d P(z) is
the functional rank (number of such functions).  conforms_to_pr records
whether the denominator is exactly (1-z)^d; the generalized closed forms
with denominators like (1-z^2)^n fail it and their extra unit-circle pole
factors are reported by cyclotomic trial division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .algebra import (
    ONE_MINUS_Z,
    Polynomial,
    RationalFunction,
    Scalar,
    cyclotomic_factors,
    split_factor,
)


@dataclass(frozen=True)
class PoleReport:
    d: int
    sigma: Fraction
    other_unit_poles: tuple[tuple[Polynomial, int], ...]
    conforms_to_pr: bool

    def pole_factor_names(self) -> list[tuple[str, int]]:
        return [(poly.format(), mult) for poly, mult in self.other_unit_poles]


def analyze(f: RationalFunction) -> PoleReport:
    """Pole order and leading constant at z = 1, plus other unit-circle poles.

    d = multiplicity of (1-z) in the denominator (0 if none); sigma is the
    exact value of (1-z)^d f at z = 1, the quotient of the coefficient sums
    of the numerator and of the residual denominator.  Remaining denominator
    factors are matched against cyclotomic polynomials of degree up to
    deg(den).
    """
    d, residual = split_factor(f.den, ONE_MINUS_Z)
    sigma = Fraction(sum(f.num.coeffs)) / sum(residual.coeffs)
    others = [(phi, mult) for _, phi, mult in cyclotomic_factors(residual)]
    conforms = residual.degree == 0 and f.den.coefficient(0) != 0
    return PoleReport(
        d=d,
        sigma=sigma,
        other_unit_poles=tuple(others),
        conforms_to_pr=conforms,
    )


def s_sequence(f: RationalFunction, k_max: int) -> list[Scalar]:
    """Cumulative counts s_k = sum_{i<=k} [z^i] f, i.e. coefficients of f/(1-z):
    the running sum of one series, so ints while the coefficients are ints."""
    return list(accumulate(f.series(k_max)))

