from fractions import Fraction

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincount import catalog
from poincount.algebra import ONE_MINUS_Z, Polynomial, RationalFunction, binomial
from poincount.analysis import analyze, s_sequence
from poincount.exprs import parse_rational_function

P = Polynomial
RF = RationalFunction


def test_analyze_riemannian_4d():
    report = analyze(catalog.claimed_poincare("riemannian", n=4))
    assert report.d == 4
    assert report.sigma == binomial(4, 2) == 6
    assert report.conforms_to_pr
    assert report.other_unit_poles == ()


def test_analyze_riemannian_2d():
    report = analyze(catalog.claimed_poincare("riemannian", n=2))
    assert report.d == 2 and report.sigma == 1


def test_analyze_hamiltonian_2d():
    report = analyze(catalog.claimed_poincare("hamiltonian-critical", n=2))
    assert report.d == 2
    assert report.sigma == Fraction(1, 4)
    assert not report.conforms_to_pr
    assert report.pole_factor_names() == [("1 + z", 2)]


def test_analyze_zero_and_polynomial():
    report = analyze(RF.zero())
    assert report.d == 0 and report.sigma == 0 and report.conforms_to_pr
    report = analyze(RF(P((0, 2))))
    assert report.d == 0 and report.sigma == 2 and report.conforms_to_pr


def test_s_sequence_ode_general():
    s = s_sequence(catalog.claimed_poincare("ode-general"), 6)
    assert s[5] == 3 and s[6] == 14


def test_s_sequence_zero():
    assert s_sequence(RF.zero(), 5) == [0, 0, 0, 0, 0, 0]


def test_s_sequence_riemannian_2d():
    assert s_sequence(catalog.claimed_poincare("riemannian", n=2), 4) == [0, 0, 1, 2, 5]


def test_s_sequence_differences_recover_h():
    p = catalog.claimed_poincare("conformal", n=4)
    s = s_sequence(p, 30)
    series = p.series(30)
    for k in range(1, 31):
        assert s[k] - s[k - 1] == series[k]


def test_asymptotic_check_examples():
    # s_K ~ sigma * C(K+d, d): at K = 200 the ratio lies within 1 +/- 10/K of sigma
    K = 200
    for f in (catalog.claimed_poincare("kaehler", n=2), RF(1, ONE_MINUS_Z)):
        report = analyze(f)
        assert report.conforms_to_pr
        ratio = Fraction(s_sequence(f, K)[K], binomial(K + report.d, report.d))
        assert abs(ratio - report.sigma) <= abs(report.sigma) * Fraction(10, K)
    assert analyze(catalog.claimed_poincare("kaehler", n=2)).d == 4
    # the single-pole form R(z)/(1-z)^d that the estimate needs
    assert not analyze(catalog.claimed_poincare("hamiltonian-critical", n=1)).conforms_to_pr


def test_pole_order_multiplicative():
    f = catalog.claimed_poincare("riemannian", n=3)
    g = catalog.claimed_poincare("ode-cubic")
    assert analyze(f * g).d == analyze(f).d + analyze(g).d


def test_pole_report_invariants_catalog_wide():
    for entry in catalog.list_entries():
        for sample in entry.samples(6):
            report = analyze(entry.claimed_p(**sample))
            assert report.d >= 0
            if report.d > 0:
                assert report.sigma != 0
            if report.conforms_to_pr:
                assert report.other_unit_poles == ()
            if entry.id not in ("hamiltonian-critical", "poincare-dulac"):
                assert report.conforms_to_pr, (entry.id, sample)


_Z = sympy.Symbol("z")


def _sympy_pole_report(expr, order):
    """(d, sigma, [(ascending coefficients, multiplicity)] of the other
    unit-circle factors, Taylor coefficients 0..order) read off sympy."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    d, others = 0, []
    for factor, mult in sympy.factor_list(den)[1]:
        poly = sympy.Poly(factor, _Z)
        if poly == sympy.Poly(_Z - 1, _Z):
            d = mult
        else:
            others.append((tuple(int(c) for c in reversed(poly.monic().all_coeffs())), mult))
    sigma = sympy.cancel(expr * (1 - _Z) ** d).subs(_Z, 1)
    # num * den^-1 mod z^(order+1): den(0) != 0 for these closed forms
    modulus = sympy.Poly(_Z ** (order + 1), _Z)
    inverse = sympy.invert(sympy.Poly(den, _Z, domain="QQ"), modulus)
    taylor = (sympy.Poly(num, _Z) * inverse).rem(modulus)
    coeffs = [taylor.coeff_monomial(_Z**k) for k in range(order + 1)]
    return d, sigma, sorted(others), coeffs


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(any),
    st.integers(0, 4),
    st.integers(0, 3),
    st.integers(0, 2),
)
@example([1], 0, 0, 0)  # a constant: no pole
@example([0, 0, 1], 0, 2, 0)  # z^2/(1-z^2)^2
@example([2, -2], 3, 1, 1)  # the numerator cancels one (1-z)
@example([1, -2, 1], 1, 0, 1)  # (1-z)^2 over (1-z): no pole at 1, sigma = 0
def test_analyze_matches_sympy(coeffs, d, e, f):
    numerator = " + ".join(f"({c})*z^{k}" for k, c in enumerate(coeffs))
    text = f"({numerator}) / ((1-z)^{d} * (1-z^2)^{e} * (1+z+z^2)^{f})"
    p = parse_rational_function(text)
    report = analyze(p)
    expr = sympy.Poly(list(reversed(coeffs)), _Z).as_expr() / (
        (1 - _Z) ** d * (1 - _Z**2) ** e * (1 + _Z + _Z**2) ** f
    )
    want_d, want_sigma, want_others, want_series = _sympy_pole_report(expr, 29)
    assert report.d == want_d
    assert report.sigma == Fraction(int(want_sigma.p), int(want_sigma.q))
    got_others = sorted(
        (tuple(int(c) for c in poly.coeffs), mult) for poly, mult in report.other_unit_poles
    )
    assert got_others == want_others
    assert list(p.series(29)) == [Fraction(int(c.p), int(c.q)) for c in want_series]
