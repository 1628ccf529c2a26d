"""Built-in roster of geometric structures with exact moduli-counting data.

Each CatalogEntry couples, for one classification problem:

* a parameter schema with a validity predicate (typically the base
  dimension n, sometimes resonance integers),
* the base-manifold dimension, which bounds the pole order of the
  counting function at z = 1,
* a HilbertSpec constructor for the number h(k) of independent invariants
  of pure order k (absent for the entries that ship only a closed form);
  it gives the polynomial tail by its integer values at tail_start, ...,
  tail_start + deg, each an integer combination of binomials C(k + s, r),
  so no Fraction polynomial is built,
* the claimed closed-form generating function P(z) = sum h(k) z^k.

The roster is a declarative table (CATALOG, version CATALOG_VERSION); the
schema is exactly the CatalogEntry dataclass below.  A family with the one
parameter n is declared by _n_family from its n-range and base-dimension
factor, which give its validity, note, samples and base dimension.
verify_entry checks, in exact rational arithmetic, that the two
constructions agree and that the pole structure respects the
base-dimension bound; any discrepancy is returned as a structured report,
never swallowed.

Entry ids follow the roster; the normal-form family `poincare-dulac` is a
single entry with a `case` parameter, reachable also through the id
aliases poincare-dulac-<case> and takens-bogdanov.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .algebra import (
    ONE_MINUS_Z,
    Polynomial,
    RationalFunction,
    binomial,
    cyclotomic,
)
from .analysis import analyze
from .errors import UsageError
from .exprs import MAX_N
from .hilbert import HilbertSpec, equal_series, gf_from_hilbert

CATALOG_VERSION = 1

OTHER_UNIT_POLES = "other-unit-circle-poles"


class UnknownEntry(UsageError):
    """No catalog entry with that id."""


class OutOfValidity(UsageError):
    """Parameters outside the entry's validity range."""


class NoHilbertData(UsageError):
    """The entry ships only a closed-form P(z), no independent h(k) data."""


_P = Polynomial
_RF = RationalFunction
_Z = Polynomial.x()
_Z2 = Polynomial.monomial(2)
_Z3 = Polynomial.monomial(3)


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    title: str
    params: tuple[str, ...]
    validity_note: str
    validity: Callable[..., bool]
    base_dim: Callable[..., int]
    claimed_p: Callable[..., RationalFunction]
    hilbert: Optional[Callable[..., HilbertSpec]] = None
    flags: frozenset = frozenset()
    note: str = ""
    samples: Callable[[int], list[dict]] = lambda nmax: [{}]

    def check_params(self, params: Mapping[str, int]) -> dict:
        clean = dict(params)
        unknown = set(clean) - set(self.params)
        if unknown:
            raise OutOfValidity(f"{self.id}: unknown parameters {sorted(unknown)}")
        for key, value in clean.items():
            if isinstance(value, int) and value > MAX_N:
                raise OutOfValidity(f"{self.id}: {key} is above the limit {MAX_N}")
        try:
            ok = self.validity(**clean)
        except TypeError:  # a missing parameter, or a value that is not a number
            ok = False
        if not ok:
            raise OutOfValidity(
                f"{self.id}: parameters {clean} outside validity ({self.validity_note})"
            )
        return clean


@dataclass(frozen=True)
class VerificationReport:
    entry_id: str
    params: dict
    status: str  # "match" | "mismatch" | "skipped"
    detail: Optional[dict] = None

    def __post_init__(self):
        if self.status == "match" and self.detail is not None:
            raise ValueError("a match carries no detail payload")


# ---------------------------------------------------------------------------
# Hilbert-spec constructors
# ---------------------------------------------------------------------------


def _tail_points(start: int, deg: int) -> range:
    """The deg + 1 points k = start, ..., start + deg whose values fix a
    tail of degree at most deg."""
    return range(start, start + deg + 1)


def _h_ode_general() -> HilbertSpec:
    return HilbertSpec({5: 3}, 6, [binomial(k, 2) - 4 for k in _tail_points(6, 2)])


def _h_ode_cubic() -> HilbertSpec:
    return HilbertSpec({}, 4, [2 * k - 2 for k in _tail_points(4, 1)])


def _h_ode_lie_form() -> HilbertSpec:
    return HilbertSpec({4: 2}, 5, [k - 1 for k in _tail_points(5, 1)])


def _h_riemannian(n: int) -> HilbertSpec:
    if n == 2:
        return HilbertSpec({2: 1, 3: 1}, 4, [k - 1 for k in _tail_points(4, 1)])
    c = binomial(n + 1, 2)
    tail = [
        c * binomial(k + n - 1, n - 1) - n * binomial(k + n, n - 1)
        for k in _tail_points(3, n - 1)
    ]
    return HilbertSpec({2: binomial(n, 3) * (n + 3) // 2}, 3, tail)


def _h_einstein(n: int) -> HilbertSpec:
    if n <= 3:
        return HilbertSpec({2: 1}, 3, [0])
    # tail = n (k-1)(n+k-1)(n+2k-2) / (2(k+1)(n-2)) * C(n+k-4, k), a
    # polynomial of degree n - 2: the (k+1) divides the product exactly
    tail = []
    for k in _tail_points(3, n - 2):
        value, rem = divmod(
            n * (k - 1) * (n + k - 1) * (n + 2 * k - 2) * binomial(k + n - 4, n - 4),
            2 * (k + 1) * (n - 2),
        )
        assert rem == 0
        tail.append(value)
    return HilbertSpec({2: (n * n - 1) * (n * n - 12) // 12}, 3, tail)


def _h_self_dual_metrics(n: int) -> HilbertSpec:
    tail = [(k - 1) * (k * k + 25 * k + 36) // 6 for k in _tail_points(3, 3)]
    return HilbertSpec({2: 9}, 3, tail)


def _h_kaehler(n: int) -> HilbertSpec:
    if n == 1:
        return _h_riemannian(2)
    tail = [
        binomial(k + 2 * n + 1, 2 * n - 1)
        - 2 * binomial(k + n + 1, n - 1)
        - 2 * n * binomial(k + n, n - 1)
        for k in _tail_points(3, 2 * n - 1)
    ]
    return HilbertSpec({2: n * n * (n - 1) * (n + 3) // 4}, 3, tail)


def _h_hyper_kaehler(n: int) -> HilbertSpec:
    tail = [
        sum(2 * (n - i) * binomial(k + 2 * n - i, 2 * n - i) for i in range(n))
        - binomial(k + 2 * n + 1, 2 * n - 1)
        - 2 * binomial(k + n + 1, n - 1)
        for k in _tail_points(3, 2 * n)
    ]
    return HilbertSpec({2: n * (n + 3) * (2 * n - 1) * (2 * n + 1) // 6}, 3, tail)


def _h_linear_connections(n: int) -> HilbertSpec:
    if n == 2:
        return HilbertSpec({1: 6}, 2, [6 * k + 2 for k in _tail_points(2, 1)])
    tail = [
        n**3 * binomial(k + n - 1, n - 1) - n * binomial(k + n + 1, n - 1)
        for k in _tail_points(1, n - 1)
    ]
    return HilbertSpec({0: n * n * (n - 3) // 2}, 1, tail)


def _h_symmetric_connections(n: int) -> HilbertSpec:
    h1 = n * n * (n * n - 4) // 3 + (1 if n == 2 else 0)
    exc = {1: h1}
    start = 2
    if n == 2:
        exc[2] = n * binomial(n + 1, 2) ** 2 - n * binomial(n + 3, 4) - 1
        start = 3
    c = n * binomial(n + 1, 2)
    tail = [
        c * binomial(k + n - 1, n - 1) - n * binomial(k + n + 1, n - 1)
        for k in _tail_points(start, n - 1)
    ]
    return HilbertSpec(exc, start, tail)


def _h_metric_connections(n: int) -> HilbertSpec:
    c1, c2 = binomial(n + 1, 2), n * binomial(n, 2)
    tail = [
        c1 * binomial(k + n, n - 1)
        + c2 * binomial(k + n - 1, n - 1)
        - n * binomial(k + n + 1, n - 1)
        for k in _tail_points(1, n - 1)
    ]
    return HilbertSpec({0: n * (n - 1) ** 2 // 2}, 1, tail)


def _h_metrizable(n: int) -> HilbertSpec:
    return _h_riemannian(n).shift_down(1)


def _h_fedosov(n: int) -> HilbertSpec:
    N = 2 * n
    c = binomial(N + 2, 3)
    tail = [
        c * binomial(k + N - 1, N - 1) - binomial(k + N + 2, N - 1)
        for k in _tail_points(3, N - 1)
    ]
    h1 = (n - 1) * n * (2 * n + 1) * (2 * n + 3) // 2 + (1 if n == 1 else 0)
    h2 = n * (n + 1) * (3 * n + 2) * (4 * n * n - 1) // 5 - (1 if n == 1 else 0)
    return HilbertSpec({1: h1, 2: h2}, 3, tail)


def _h_projective(n: int) -> HilbertSpec:
    if n == 2:
        return _h_ode_cubic()
    c = (n - 1) * n * (n + 2) // 2
    tail = [
        c * binomial(k + n - 1, n - 1) - n * binomial(k + n + 1, n - 1)
        for k in _tail_points(3, n - 1)
    ]
    exc = {
        1: n * n * (n * n - 7) // 3,
        2: n * (n - 2) * (5 * n**3 + 16 * n * n + 15 * n + 12) // 24,
    }
    return HilbertSpec(exc, 3, tail)


def _h_conformal(n: int) -> HilbertSpec:
    if n == 3:
        return HilbertSpec({3: 1, 4: 9}, 5, [k * k - 4 for k in _tail_points(5, 2)])
    c = binomial(n + 1, 2) - 1
    tail = [
        c * binomial(k + n - 1, n - 1) - n * binomial(k + n, n - 1)
        for k in _tail_points(4, n - 1)
    ]
    exc = {
        2: n * n * (n * n - 1) // 12 - n * n - 1,
        3: n * (n**4 + 2 * n**3 - 5 * n * n - 14 * n - 32) // 24,
    }
    return HilbertSpec(exc, 4, tail)


def _h_weyl(n: int) -> HilbertSpec:
    c = binomial(n + 1, 2) - 1
    tail = [
        c * binomial(k + n, n - 1)
        + n * binomial(k + n - 1, n - 1)
        - n * binomial(k + n + 1, n - 1)
        for k in _tail_points(3, n - 1)
    ]
    d2 = 1 if n == 2 else 0
    exc = {
        1: (n * n - 4) * (n * n + 3) // 12 + d2,
        2: n * (n * n - 1) * (n * n + 2 * n + 8) // 24 - d2,
    }
    return HilbertSpec(exc, 3, tail)


def _h_einstein_weyl(n: int) -> HilbertSpec:
    conf = binomial(n + 1, 2) - 1
    tail = [
        conf * binomial(k + n, n - 1)
        + n * binomial(k + n - 1, n - 1)
        - conf * binomial(k + n - 2, n - 1)
        - n * binomial(k + n + 1, n - 1)
        for k in _tail_points(3, n - 1)
    ]
    d3 = 1 if n == 3 else 0
    exc = {
        1: (n - 3) * n * (n + 1) * (n + 2) // 12 + d3,
        2: n * (n - 1) * (n - 2) * (n * n + 5 * n + 8) // 24 - d3,
    }
    return HilbertSpec(exc, 3, tail)


def _h_self_dual_conformal(n: int) -> HilbertSpec:
    return HilbertSpec({2: 1, 3: 13}, 4, [3 * k * k - 7 for k in _tail_points(4, 2)])


def _h_almost_complex(n: int) -> HilbertSpec:
    N = 2 * n
    if n == 2:
        tail = [
            8 * binomial(k + 3, 3) - 4 * binomial(k + 4, 3) + 4 for k in _tail_points(3, 3)
        ]
        return HilbertSpec({2: 2}, 3, tail)
    exc, start = ({1: 2, 2: 64}, 3) if n == 3 else ({}, 1)
    tail = [
        2 * n * n * binomial(k + N - 1, N - 1)
        - 2 * n * binomial(k + N, N - 1)
        + 2 * n * binomial(k + n, n - 1)
        - 2 * n * binomial(k + n - 1, n - 1)
        for k in _tail_points(start, N - 1)
    ]
    return HilbertSpec(exc, start, tail)


# ---------------------------------------------------------------------------
# Closed-form P(z) constructors
# ---------------------------------------------------------------------------


def _p_ode_general() -> RationalFunction:
    return _RF(_P((0, 0, 0, 0, 0, 3, 2, -7, 3)), ONE_MINUS_Z**3)


def _p_ode_cubic() -> RationalFunction:
    return _RF(_P((0, 0, 0, 0, 6, -4)), ONE_MINUS_Z**2)


def _p_ode_lie_form() -> RationalFunction:
    return _RF(_P((0, 0, 0, 0, 2, 0, -1)), ONE_MINUS_Z**2)


def _p_riemannian(n: int) -> RationalFunction:
    if n == 2:
        return _RF(_P((0, 0, 1, -1, 2, -1)), ONE_MINUS_Z**2)
    return (
        _RF(n, _Z)
        + binomial(n, 2) * _RF(_P((1, 0, -1)))
        - _RF(1, ONE_MINUS_Z**n) * (_RF(n, _Z) - binomial(n + 1, 2))
    )


def _p_einstein(n: int) -> RationalFunction:
    if n <= 3:
        return _RF(_Z2)
    return (
        _RF(
            n * _P((1, 1)) * _P((-2, n + 1, -2)),
            Polynomial.monomial(1, 2) * ONE_MINUS_Z ** (n - 1),
        )
        + binomial(n, 2) * _RF(_P((1, 0, -1)))
        + _RF(n, _Z)
        + _RF(_Z2)
    )


def _p_self_dual_metrics(n: int) -> RationalFunction:
    return _RF(_P((0, 0, 9, 4, -30, 24, -6)), ONE_MINUS_Z**4)


def _p_kaehler(n: int) -> RationalFunction:
    if n == 1:
        return _p_riemannian(2)
    return (
        _RF(1, _Z2 * ONE_MINUS_Z ** (2 * n))
        - _RF(2 * _P((1, n)), _Z2 * ONE_MINUS_Z**n)
        + n * n * _RF(_P((1, 0, -1)))
        + _RF(_P((1, 2 * n)), _Z2)
    )


def _p_hyper_kaehler(n: int) -> RationalFunction:
    return (
        _RF(2 * n, _Z * ONE_MINUS_Z ** (2 * n + 1))
        - _RF(3, _Z2 * ONE_MINUS_Z ** (2 * n))
        + n * (2 * n + 1) * _RF(_P((1, 0, -1)))
        + _RF(_P((3, 4 * n)), _Z2)
    )


def _p_linear_connections(n: int) -> RationalFunction:
    if n == 2:
        return _RF(_P((0, 6, 2, -2)), ONE_MINUS_Z**2)
    return (
        _RF(n * _P((-1, 0, n * n)), _Z2 * ONE_MINUS_Z**n)
        - n * n
        + _RF(n * _P((1, n)), _Z2)
    )


def _p_symmetric_connections(n: int) -> RationalFunction:
    if n == 2:
        return _RF(_P((0, 1, 5, -1, -1)), ONE_MINUS_Z**2)
    return (
        _RF(n * _P((-2, 0, n * (n + 1))), 2 * _Z2 * ONE_MINUS_Z**n)
        - _RF(_P((0, n * n)))
        + _RF(n * _P((1, n)), _Z2)
    )


def _p_metric_connections(n: int) -> RationalFunction:
    c2 = binomial(n, 2)
    return _RF(_P((n, c2, -c2)), _Z2) - _RF(
        _P((2 * n, -n * (n + 1), -n * n * (n - 1))), 2 * _Z2 * ONE_MINUS_Z**n
    )


_SKEW_TORSION_STABILIZER = {3: 3, 4: 3, 5: 2}


def skew_torsion_stabilizer(n: int) -> int:
    """Generic 3-form stabilizer dimension in the orthogonal group."""
    if n < 3:
        raise OutOfValidity("skew torsion needs n >= 3")
    return _SKEW_TORSION_STABILIZER.get(n, 0)


def _p_skew_torsion(n: int) -> RationalFunction:
    c2 = binomial(n, 2)
    return (
        _RF(_P((n, c2, -c2)), _Z2)
        - _RF(
            _P((n, -binomial(n + 1, 2), -binomial(n, 3))), _Z2 * ONE_MINUS_Z**n
        )
        + skew_torsion_stabilizer(n) * _RF(ONE_MINUS_Z)
    )


def _p_metrizable(n: int) -> RationalFunction:
    return _p_riemannian(n) / _RF(_Z)


def _p_fedosov(n: int) -> RationalFunction:
    if n == 1:
        return _RF(_P((0, 1, 3, 0, -1)), ONE_MINUS_Z**2)
    m = n * (2 * n + 1)
    return _RF(
        _P((-3, 0, 0, 2 * n * (2 * n * n + 3 * n + 1))),
        3 * _Z3 * ONE_MINUS_Z ** (2 * n),
    ) + _RF(_P((1, 2 * n, m, 0, -m)), _Z3)


def _p_projective(n: int) -> RationalFunction:
    if n == 2:
        return _p_ode_cubic()
    return _RF(n, ONE_MINUS_Z**n) * (
        binomial(n + 1, 2) - _RF(_P((1, 0, 1)), _Z2)
    ) - n * (_RF(_P((-1, n, 1))) - _RF(_P((1, n)), _Z2))


def _p_conformal(n: int) -> RationalFunction:
    if n == 3:
        return _RF(_Z3 * _P((1, 1)) * _P((1, 5, -8, 3)), ONE_MINUS_Z**3)
    return (
        _RF(_P((-2 * n, n * n + n - 2)), 2 * _Z * ONE_MINUS_Z**n)
        + _RF(n, _Z)
        + _RF(_P((1 + binomial(n, 2), n)) * _P((1, 0, -1)))
    )


def _p_weyl(n: int) -> RationalFunction:
    c = binomial(n, 2) + 1
    result = _RF(
        _P((-n, binomial(n + 1, 2) - 1, n)), _Z2 * ONE_MINUS_Z**n
    ) - _RF(_P((-n, -c, 0, c)), _Z2)
    if n == 2:
        result = result - _RF(_P((0, -1, 1)))
    return result


def _p_einstein_weyl(n: int) -> RationalFunction:
    if n == 3:
        return _RF(_P((0, 1, 5, -1, -1)), ONE_MINUS_Z**2)
    conf = binomial(n + 1, 2) - 1
    c = binomial(n, 2) + 1
    return _RF(
        _P((-n, conf, n, -conf)), _Z2 * ONE_MINUS_Z**n
    ) - _RF(_P((-n, -c, 0, c)), _Z2)


def _p_self_dual_conformal(n: int) -> RationalFunction:
    return _RF(_P((0, 0, 1, 10, 5, -17, 7)), ONE_MINUS_Z**3)


def _p_almost_complex(n: int) -> RationalFunction:
    if n == 2:
        return _RF(2 * _P((0, 0, 1, 8, -12, 6, -1)), ONE_MINUS_Z**4)
    if n == 3:
        return _RF(
            2 * _P((0, 1, 26, -36, 10, 17, -18, 7, -1)), ONE_MINUS_Z**6
        )
    return (
        _RF(2 * n * _P((-1, n)), _Z * ONE_MINUS_Z ** (2 * n))
        + _RF(2 * n, _Z * ONE_MINUS_Z ** (n - 1))
        + 2 * n
    )


def _p_hamiltonian_critical(n: int) -> RationalFunction:
    return _RF(1, _P((1, 0, -1)) ** n)


@dataclass(frozen=True)
class _PDCase:
    """One Poincare-Dulac case: the parameters it takes, the rule they
    meet, that rule as the validity note states it, and its samples."""

    params: tuple[str, ...]
    rule: Callable[..., bool]
    phrase: str
    samples: tuple[dict, ...]


#: The Poincare-Dulac cases, in the order the note and the samples list
#: them; the validity check, the note, the samples and the id aliases are
#: read off this table.
_PD_CASES = {
    "nonresonant": _PDCase((), lambda: True, "", ({},)),
    "poincare-domain": _PDCase(("m",), lambda m: m > 1, "m > 1", ({"m": 2}, {"m": 3})),
    "saddle": _PDCase(
        ("p", "q"), lambda p, q: p >= 1 and q >= 1, "p, q >= 1",
        ({"p": 1, "q": 1}, {"p": 1, "q": 2}),
    ),
    "saddle-node": _PDCase(("m",), lambda m: m >= 1, "m >= 1", ({"m": 1}, {"m": 2})),
    "takens-bogdanov": _PDCase((), lambda: True, "", ({},)),
}


def _pd_params(case: str, m=None, p=None, q=None) -> bool:
    """A known case, given exactly its parameters, which meet its rule."""
    if case not in _PD_CASES:
        return False
    given = {name: v for name, v in (("m", m), ("p", p), ("q", q)) if v is not None}
    return set(given) == set(_PD_CASES[case].params) and _PD_CASES[case].rule(**given)


def _pd_note() -> str:
    cases = (f"{case} ({pd.phrase})" if pd.phrase else case for case, pd in _PD_CASES.items())
    return "case in {" + ", ".join(cases) + "}"


def _pd_samples(nmax: int) -> list[dict]:
    return [{"case": case, **s} for case, pd in _PD_CASES.items() for s in pd.samples]


def _p_poincare_dulac(case: str, m=None, p=None, q=None) -> RationalFunction:
    if case == "nonresonant":
        return _RF(_P((0, 2)))
    if case == "poincare-domain":
        return _RF(Polynomial.x() + Polynomial.monomial(m))
    if case == "saddle":
        mm = p + q
        return _RF(
            Polynomial.x()
            + Polynomial.monomial(mm + 1)
            + Polynomial.monomial(2 * mm + 1)
        )
    if case == "saddle-node":
        return _RF(
            Polynomial.x() - Polynomial.monomial(m + 1), ONE_MINUS_Z
        ) + _RF(Polynomial.monomial(2 * m + 1))
    return _RF(_P((1, 1, 1, 0, -1)) * _Z2, _P((1, 0, 0, -1)))  # takens-bogdanov


# ---------------------------------------------------------------------------
# The roster
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _NSamples:
    """The samples n = n_min..min(nmax, n_max) of an entry with the one
    parameter n."""

    n_min: int
    n_max: int

    def __call__(self, nmax: int) -> list[dict]:
        return [{"n": n} for n in range(self.n_min, min(nmax, self.n_max) + 1)]


def _n_family(
    id: str,
    title: str,
    n_min: int,
    claimed_p: Callable[[int], RationalFunction],
    hilbert: Optional[Callable[[int], HilbertSpec]] = None,
    *,
    n_max: int = MAX_N,
    c: int = 1,
    validity_note: str = "",
    samples_from: int = 0,
    **fields,
) -> CatalogEntry:
    """An entry with the one parameter n, valid for n_min <= n <= n_max, on
    a base of real dimension c*n.  Unless given, the validity note reads
    "n >= n_min", or "n = n_min" for a one-point range, and the samples
    start at n_min."""
    if not validity_note:
        validity_note = f"n = {n_min}" if n_min == n_max else f"n >= {n_min}"
    return CatalogEntry(
        id=id,
        title=title,
        params=("n",),
        validity_note=validity_note,
        validity=lambda n: n_min <= n <= n_max,
        base_dim=lambda n: c * n,
        claimed_p=claimed_p,
        hilbert=hilbert,
        samples=_NSamples(samples_from or n_min, n_max),
        **fields,
    )


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        id="ode-general",
        title="Generic 2nd-order ODE modulo point transformations",
        params=(),
        validity_note="no parameters",
        validity=lambda: True,
        base_dim=lambda: 4,
        hilbert=_h_ode_general,
        claimed_p=_p_ode_general,
    ),
    CatalogEntry(
        id="ode-cubic",
        title="2nd-order ODE cubic in the first derivative",
        params=(),
        validity_note="no parameters",
        validity=lambda: True,
        base_dim=lambda: 2,
        hilbert=_h_ode_cubic,
        claimed_p=_p_ode_cubic,
    ),
    CatalogEntry(
        id="ode-lie-form",
        title="2nd-order ODE y'' = f(x, y)",
        params=(),
        validity_note="no parameters",
        validity=lambda: True,
        base_dim=lambda: 2,
        hilbert=_h_ode_lie_form,
        claimed_p=_p_ode_lie_form,
    ),
    _n_family(
        "riemannian", "Riemannian metrics", 2, _p_riemannian, _h_riemannian,
        note="signature does not affect the count",
    ),
    _n_family(
        "einstein", "Einstein metrics", 2, _p_einstein, _h_einstein,
        validity_note="n >= 2; degenerate (single order-2 modulus) for n = 2, 3",
        samples_from=4,
        note="nontrivial moduli only for n >= 4",
    ),
    _n_family(
        "self-dual-metrics", "Self-dual metrics in 4D", 4,
        _p_self_dual_metrics, _h_self_dual_metrics, n_max=4,
    ),
    _n_family(
        "kaehler", "Kaehler metrics (real dimension 2n)", 1, _p_kaehler, _h_kaehler,
        c=2, note="n = 1 coincides with 2D Riemannian metrics",
    ),
    _n_family(
        "hyper-kaehler", "Hyper-Kaehler metrics (real dimension 4n)", 1,
        _p_hyper_kaehler, _h_hyper_kaehler, c=4,
    ),
    _n_family(
        "linear-connections", "Linear connections", 2,
        _p_linear_connections, _h_linear_connections,
    ),
    _n_family(
        "symmetric-connections", "Symmetric linear connections", 2,
        _p_symmetric_connections, _h_symmetric_connections,
    ),
    _n_family(
        "metric-connections", "Metric connections (metric plus compatible connection)", 2,
        _p_metric_connections, _h_metric_connections,
    ),
    _n_family(
        "metric-connections-skew-torsion", "Metric connections with totally skew torsion", 3,
        _p_skew_torsion,
        note="closed form only; the generic 3-form stabilizer sequence is 3, 3, 2, 0, ...",
    ),
    _n_family(
        "metrizable-connections", "Metrizable symmetric connections", 2,
        _p_metrizable, _h_metrizable,
        note="count equals the metric count shifted one order down (P/z)",
    ),
    _n_family(
        "fedosov", "Fedosov structures (symplectic form plus symplectic connection)", 1,
        _p_fedosov, _h_fedosov, c=2, validity_note="n >= 1 (real dimension 2n)",
    ),
    _n_family(
        "projective-connections", "Projective connections", 2, _p_projective, _h_projective,
        note="n = 2 coincides with cubic 2nd-order ODEs",
    ),
    _n_family("conformal", "Conformal metric structures", 3, _p_conformal, _h_conformal),
    _n_family("weyl", "Weyl conformal structures", 2, _p_weyl, _h_weyl),
    _n_family(
        "einstein-weyl", "Einstein-Weyl structures", 3, _p_einstein_weyl, _h_einstein_weyl,
    ),
    _n_family(
        "self-dual-conformal", "Self-dual conformal structures in 4D", 4,
        _p_self_dual_conformal, _h_self_dual_conformal, n_max=4,
    ),
    _n_family(
        "almost-complex", "Almost complex structures (real dimension 2n)", 2,
        _p_almost_complex, _h_almost_complex,
        c=2, note="infinite-type structure; first nontrivial such count",
    ),
    _n_family(
        "hamiltonian-critical",
        "Critical linearly-stable Hamiltonians modulo symplectomorphisms",
        1,
        _p_hamiltonian_critical,
        c=2,
        validity_note="n >= 1 (real dimension 2n)",
        flags=frozenset({OTHER_UNIT_POLES}),
        note="closed form only; poles at both z = 1 and z = -1",
    ),
    CatalogEntry(
        id="poincare-dulac",
        title="Poincare-Dulac normal forms of planar vector fields",
        params=("case", "m", "p", "q"),
        validity_note=_pd_note(),
        validity=_pd_params,
        base_dim=lambda **params: 2,
        claimed_p=_p_poincare_dulac,
        flags=frozenset({OTHER_UNIT_POLES}),
        samples=_pd_samples,
        note="closed forms only; the takens-bogdanov case has a pole at the cube roots of unity",
    ),
)

_BY_ID = {entry.id: entry for entry in CATALOG}

#: id aliases resolving to (entry id, implied parameters)
ID_ALIASES: dict[str, tuple[str, dict]] = {
    f"poincare-dulac-{case}": ("poincare-dulac", {"case": case})
    for case in _PD_CASES
}
ID_ALIASES["takens-bogdanov"] = ("poincare-dulac", {"case": "takens-bogdanov"})


def list_entries() -> tuple[CatalogEntry, ...]:
    """The roster, in its stable documented order."""
    return CATALOG


def resolve(entry_id: str) -> tuple[CatalogEntry, dict]:
    """Look up an entry by id or alias; aliases imply parameters."""
    if entry_id in _BY_ID:
        return _BY_ID[entry_id], {}
    if entry_id in ID_ALIASES:
        canonical, implied = ID_ALIASES[entry_id]
        return _BY_ID[canonical], dict(implied)
    raise UnknownEntry(f"unknown catalog entry {entry_id!r}")


def get_entry(entry_id: str) -> CatalogEntry:
    return resolve(entry_id)[0]


def _prepare(entry_id: str, params: Mapping[str, int]) -> tuple[CatalogEntry, dict]:
    """The entry and its checked parameters; one an alias sets must agree."""
    entry, implied = resolve(entry_id)
    for key, value in params.items():
        if implied.setdefault(key, value) != value:
            raise OutOfValidity(
                f"parameter {key} is given twice, as {implied[key]!r} by {entry_id} and {value!r}"
            )
    return entry, entry.check_params(implied)


def select_samples(entry_id: str, nmax: int) -> tuple[CatalogEntry, list[dict]]:
    """The entry's samples with n <= nmax that carry the parameters an alias
    implies.  An empty selection would check nothing, so it raises
    UsageError naming the smallest n that selects a sample."""
    entry, implied = resolve(entry_id)
    samples = [
        s for s in entry.samples(nmax) if all(s.get(k) == v for k, v in implied.items())
    ]
    if not samples:
        hint = ""
        if isinstance(entry.samples, _NSamples):
            hint = f"; the smallest n with a sample is {entry.samples.n_min}"
        raise UsageError(f"{entry_id} has no sample with n <= {nmax}{hint}")
    return entry, samples


def hilbert_spec(entry_id: str, **params) -> HilbertSpec:
    """The entry's counting sequence as a HilbertSpec."""
    entry, clean = _prepare(entry_id, params)
    if entry.hilbert is None:
        raise NoHilbertData(
            f"{entry.id} ships only a closed-form P(z); "
            "derive a spec via hilbert.spec_from_gf if needed"
        )
    return entry.hilbert(**clean)


def claimed_poincare(entry_id: str, **params) -> RationalFunction:
    """The entry's claimed closed-form generating function."""
    entry, clean = _prepare(entry_id, params)
    return entry.claimed_p(**clean)


def base_dimension(entry_id: str, **params) -> int:
    entry, clean = _prepare(entry_id, params)
    return entry.base_dim(**clean)


def verify_entry(entry_id: str, params: Mapping[str, int], k_max: int) -> VerificationReport:
    """Exact consistency check of one entry at one parameter point.

    With h(k) data: the generating function built from the spec must equal
    the claimed closed form as a canonical rational function AND coefficient
    by coefficient up to k_max.  Always: no pole at z = 0, pole order at
    z = 1 bounded by the base dimension, and (unless the entry is flagged
    for other unit-circle poles) the denominator is exactly (1-z)^d.
    """
    entry, clean = _prepare(entry_id, params)
    p = entry.claimed_p(**clean)
    problems = {}

    if p.den.coefficient(0) == 0:
        problems["pole_at_origin"] = str(p.den)
    poles = analyze(p)
    base = entry.base_dim(**clean)
    if poles.d > base:
        problems["pole_order_exceeds_base_dim"] = {"d": poles.d, "base_dim": base}
    if not poles.conforms_to_pr and OTHER_UNIT_POLES not in entry.flags:
        problems["unexpected_unit_poles"] = poles.pole_factor_names()

    if entry.hilbert is None:
        factors = poles.pole_factor_names()
        if poles.d:
            factors.insert(0, (cyclotomic(1).format(), poles.d))
        detail = {"reason": "no-hilbert-data", "pole_order": poles.d, "pole_factors": factors}
        if problems:
            detail["problems"] = problems
            return VerificationReport(entry.id, clean, "mismatch", detail)
        return VerificationReport(entry.id, clean, "skipped", detail)

    spec = entry.hilbert(**clean)
    gf = gf_from_hilbert(spec)
    if gf != p:
        problems["gf_mismatch"] = {"from_hilbert": str(gf), "claimed": str(p)}
    mismatch = equal_series(p, spec, k_max)
    if mismatch is not None:
        k, expected, got = mismatch
        problems["series_mismatch"] = {"k": k, "expected": expected, "got": str(got)}

    if problems:
        return VerificationReport(entry.id, clean, "mismatch", problems)
    return VerificationReport(entry.id, clean, "match")


def verify_all(k_max: int = 50, nmax: int = 8) -> list[VerificationReport]:
    """verify_entry over the whole roster, deterministic order."""
    reports = []
    for entry in CATALOG:
        for sample in entry.samples(nmax):
            reports.append(verify_entry(entry.id, sample, k_max))
    return reports
