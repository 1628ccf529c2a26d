import random
import sys
import threading
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincount.algebra import (
    ONE_MINUS_Z,
    PoleAtOrigin,
    Polynomial,
    RationalFunction,
    UnsupportedArgument,
    binomial,
    cyclotomic,
    cyclotomic_factors,
    poly_gcd,
    split_factor,
)

from oracles import (
    binom_in_k,
    divmod_split_factor,
    euclid_gcd,
    fraction_series,
    geometric_series_power,
    scan_cyclotomic_factors,
    square_and_multiply,
    truncated_product_series,
)

P = Polynomial
RF = RationalFunction


def test_binomial_examples():
    assert binomial(5, 2) == 10
    assert binomial(3, -1) == 0
    assert binomial(4, 4) == 1
    assert binomial(3, 5) == 0
    with pytest.raises(UnsupportedArgument):
        binomial(-2, 1)


def test_normalization_common_polynomial_factor():
    f = RF(P((0, 0, 1, -1)), ONE_MINUS_Z**2)  # (z^2 - z^3)/(1-z)^2
    assert f.num == P((0, 0, 1))
    assert f.den == ONE_MINUS_Z


def test_normalization_constant_scaling():
    f = RF(P((2,)), P((2, -2)))
    assert f.num == P((1,))
    assert f.den == ONE_MINUS_Z


def test_normalization_factor_of_z():
    f = RF(P((0, 1, 1)), P((0, 1)))
    assert f.num == P((1, 1))
    assert f.den == P((1,))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RF(P((1,)), P(()))


def test_series_geometric_cube():
    f = RF(1, ONE_MINUS_Z**3)
    expected = geometric_series_power(3, 4)
    assert list(f.series(4)) == expected == [1, 3, 6, 10, 15]


def test_series_quintic_numerator():
    f = RF(P((0, 0, 0, 0, 0, 3, 2, -7, 3)), ONE_MINUS_Z**3)
    assert [int(c) for c in f.series(6)] == [0, 0, 0, 0, 0, 3, 11]


def test_series_zero_function():
    assert list(RF.zero().series(3)) == [0, 0, 0, 0]


def test_series_pole_at_origin_rejected():
    with pytest.raises(PoleAtOrigin):
        RF(1, P((0, 1))).series(3)


def test_coefficient_examples():
    f = RF(2 * P((0, 0, 0, 0, 3, -2)), ONE_MINUS_Z**2)  # 2z^4(3-2z)/(1-z)^2
    assert f.coefficient(7) == 12
    assert RF.one().coefficient(5) == 0
    g = RF(1, P((1, 0, -1)) ** 2)  # 1/(1-z^2)^2
    sq = [1 if k % 2 == 0 else 0 for k in range(5)]
    oracle = truncated_product_series([sq, sq], 4)
    assert g.coefficient(4) == oracle[4] == 3


def pole_order(f, factor):
    """The multiplicity of `factor` in f's denominator minus that in its
    numerator, by split_factor on each."""
    return split_factor(f.den, factor)[0] - split_factor(f.num, factor)[0]


def test_multiplicity_examples():
    f = RF(P((0, 0, 9, 4, -30, 24, -6)), ONE_MINUS_Z**4)
    assert pole_order(f, ONE_MINUS_Z) == 4
    g = RF(1, P((1, 0, -1)) ** 2)
    assert pole_order(g, P((1, 1))) == 2
    assert pole_order(RF(P((0, 1))), ONE_MINUS_Z) == 0
    with pytest.raises(UnsupportedArgument):
        pole_order(RF.one(), P((5,)))


def test_evaluate_examples():
    r = P((3, 2, -7, 3))
    assert r.evaluate(1) == 1


def test_polynomial_division_and_gcd():
    a = ONE_MINUS_Z**3 * P((2, 5))
    assert split_factor(a, ONE_MINUS_Z) == (3, P((2, 5)))
    g = poly_gcd(ONE_MINUS_Z**2 * P((1, 1)), ONE_MINUS_Z * P((3, 3)))
    assert g == (ONE_MINUS_Z * P((1, 1))).monic()


def test_cyclotomic_values():
    assert cyclotomic(1) == P((-1, 1))
    assert cyclotomic(2) == P((1, 1))
    assert cyclotomic(3) == P((1, 1, 1))
    assert cyclotomic(6) == P((1, -1, 1))
    for m in (4, 9, 12):
        # z^m - 1 factors into the cyclotomics of the divisors of m
        prod = P((1,))
        for d in range(1, m + 1):
            if m % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == P((-1,) + (0,) * (m - 1) + (1,))


def test_cyclotomic_matches_sympy():
    # cyclotomic divides z^m - 1 by each Phi_d over the integers
    z = sympy.Symbol("z")
    for m in range(1, 201):
        expected = sympy.Poly(sympy.cyclotomic_poly(m, z), z).all_coeffs()[::-1]
        assert cyclotomic(m).coeffs == tuple(expected), m


def test_cyclotomic_factors_scan_includes_high_index():
    den = P((1, 0, 0, -1))  # 1 - z^3
    found = {m: mult for m, _, mult in cyclotomic_factors(den)}
    assert found == {3: 1}
    assert split_factor(den, cyclotomic(1))[0] == 1


# Factors for random residuals: cyclotomic ones (1 - z among them), z, and
# non-cyclotomic ones, self-reciprocal (1 + 3z + z^2) or not.
_FACTORS = [cyclotomic(m) for m in (1, 2, 3, 4, 5, 6, 8, 10, 12)]
_FACTORS += [P((0, 1)), P((1, 3, 1)), P((2, 1)), P((1, 1, 2)), P((Fraction(1, 2), 0, 1))]


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(range(len(_FACTORS))), st.integers(1, 3)), max_size=4),
    st.sampled_from([1, -3, Fraction(2, 5)]),
)
@example([], 1)
@example([(1, 3)], 1)  # (1 + z)^3, the residual shape of the analyze workload
@example([(9, 1), (10, 2)], -3)  # z (1 + 3z + z^2)^2: self-reciprocal, no Phi_m
def test_cyclotomic_factors_match_full_scan(factors, scale):
    poly = P((scale,))
    for index, mult in factors:
        poly = poly * _FACTORS[index] ** mult
    assert cyclotomic_factors(poly) == scan_cyclotomic_factors(poly)


def test_cyclotomic_factors_of_high_degree_residuals():
    # the full scan takes minutes on each of these
    assert cyclotomic_factors(P((2, 1)) ** 1000) == []
    assert cyclotomic_factors(P((2,) + (0,) * 999 + (1,))) == []
    assert cyclotomic_factors(P((1, 3, 1)) ** 500) == []
    assert cyclotomic_factors(P((1, 1)) ** 400 * P((1, 3, 1))) == [(2, P((1, 1)), 400)]


def test_binom_in_k_matches_binomial():
    for shift in range(-3, 6):
        for r in range(0, 5):
            poly = binom_in_k(shift, r)
            for k in range(0, 12):
                if k + shift >= 0:
                    assert poly.evaluate(k) == binomial(k + shift, r)


def test_reduction_waits_for_the_first_read(monkeypatch):
    from poincount import algebra
    from poincount.catalog import claimed_poincare

    calls = []

    def counting_gcd(a, b, gcd=algebra.poly_gcd):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(algebra, "poly_gcd", counting_gcd)
    f = claimed_poincare("kaehler", n=3)
    assert calls == []
    assert ((f - f).is_zero(), calls) == (True, [])
    num, den = f.num, f.den
    assert f.den == den and f == f and hash(f) == hash(("RationalFunction", num.coeffs, den.coeffs))
    assert f.format() == str(f) and f.series(6)[6] == f.coefficient(6)
    assert len(calls) == 1
    unreduced = RF(P((1, -1)) * P((2, 3)), P((1, -1)) ** 2)
    reduced = RF(P((2, 3)), P((1, -1)))
    assert (reduced.num, reduced.den) == (P((2, 3)), P((1, -1)))
    assert hash(unreduced) == hash(reduced) and unreduced == reduced
    assert RF(P((2, 2)), P((1, 1))) == 2 and hash(RF(P((2, 2)), P((1, 1)))) == hash(RF(2))


def test_threads_racing_on_the_first_read_agree():
    # Each value is reduced by whichever thread reads it first; the others
    # must see the old pair or the new one whole, never half of each.
    def make(k):
        return RF(P((2, k)) * ONE_MINUS_Z**k, P((3, 1)) * ONE_MINUS_Z ** (k + 1))

    want = [(make(k).num, make(k).den, (make(k) + make(k)).den) for k in range(1, 60)]
    shared = [make(k) for k in range(1, 60)]
    errors = []

    def reader(order):
        for i in order:
            f = shared[i]
            if (f.num, f.den, (f + shared[i]).den) != want[i]:
                errors.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        orders = [random.Random(seed).sample(range(len(shared)), len(shared)) for seed in range(8)]
        threads = [threading.Thread(target=reader, args=(order,)) for order in orders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def _random_poly(rng, max_deg=6, zero_ok=True):
    deg = rng.randint(0 if zero_ok else 1, max_deg)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg + 1)]
    return Polynomial(coeffs)


def test_canonical_form_property_1000_cases():
    rng = random.Random(20240601)
    checked = 0
    while checked < 1000:
        a = _random_poly(rng)
        b = _random_poly(rng)
        c = _random_poly(rng)
        if b.is_zero() or c.is_zero():
            continue
        assert RF(a * c, b * c) == RF(a, b)
        checked += 1
    assert checked == 1000


def test_series_recurrence_property_300_cases():
    rng = random.Random(777)
    checked = 0
    while checked < 300:
        a = _random_poly(rng)
        b = _random_poly(rng)
        if b.is_zero() or b.coefficient(0) == 0:
            continue
        f = RF(a, b)
        if f.den.coefficient(0) == 0:
            continue
        order = 12
        series = f.series(order)
        # den * series agrees with num through the truncation order
        prod = truncated_product_series(
            [list(f.den.coeffs) or [0], list(series)], order
        )
        for k in range(order + 1):
            assert prod[k] == f.num.coefficient(k)
        checked += 1


def test_master_binomial_coefficient_identity():
    for n in range(1, 11):
        f = RF(1, ONE_MINUS_Z**n)
        series = f.series(40)
        for k in range(41):
            assert series[k] == binomial(n + k - 1, k)


def test_multiplicity_additive_under_product_200_cases():
    rng = random.Random(4242)
    factors = [ONE_MINUS_Z, P((1, 1)), P((1, 1, 1))]
    checked = 0
    while checked < 200:
        exps = [rng.randint(0, 3) for _ in range(6)]
        num1 = factors[0] ** exps[0] * factors[1] ** exps[1]
        den1 = factors[2] ** exps[2] * P((1, 0, 0, 2))
        num2 = factors[1] ** exps[3]
        den2 = factors[0] ** exps[4] * factors[2] ** exps[5]
        f, g = RF(num1, den1), RF(num2, den2)
        fg = f * g
        for p in factors:
            assert pole_order(fg, p) == pole_order(f, p) + pole_order(g, p)
        checked += 1


def test_arithmetic_round_trip_500_cases():
    rng = random.Random(90125)
    for _ in range(500):
        a = _random_poly(rng, 4)
        b = _random_poly(rng, 4, zero_ok=False)
        f = RF(a, b)
        assert f - f == RF.zero()
        assert f + RF.zero() == f
        if not f.is_zero():
            assert f / f == RF.one()
        assert f * RF.one() == f


PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)
_Z = sympy.Symbol("z")


_integers = st.integers(-20, 20)
_fractions = st.fractions(-20, 20, max_denominator=7)


def _sympy_monic_gcd(a, b):
    g = sympy.gcd(
        sympy.Poly(list(reversed(a.coeffs)) or [0], _Z, domain="QQ"),
        sympy.Poly(list(reversed(b.coeffs)) or [0], _Z, domain="QQ"),
    )
    if g.is_zero:
        return ()
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(g.monic().all_coeffs()))


@PROPERTY
@given(
    st.lists(_fractions, max_size=6),
    st.lists(_fractions, max_size=6),
    st.lists(_integers, max_size=4),
)
@example([], [], [])  # gcd(0, 0) = 0
@example([1, 1], [1, -1], [1])  # coprime: gcd 1
@example([Fraction(1, 2)], [0, 0, 3], [])  # nonzero constant: gcd 1
@example([3, Fraction(-3, 4)], [], [2, 5])  # gcd(a, 0) = monic a
def test_poly_gcd_matches_sympy_and_euclid(a, b, c):
    a, b = P(a) * P(c), P(b) * P(c)
    g = poly_gcd(a, b)
    assert g.coeffs == _sympy_monic_gcd(a, b)
    assert g == euclid_gcd(a, b)


@PROPERTY
@given(
    st.one_of(
        st.tuples(st.lists(_integers, max_size=8), st.lists(_integers, max_size=6)),
        st.tuples(st.lists(_fractions, max_size=8), st.lists(_fractions, max_size=6)),
    ),
    st.integers(-20, 20).filter(bool),
)
@example(([1], [1, -3, 3, -1]), 10)
@example(([Fraction(1, 3), 2], [5, 0, -2]), 10)  # den(0) = 5 before canonicalization
def test_series_matches_fraction_recurrence(num_den, d0):
    num, den = num_den
    den = [d0] + den  # den(0) != 0: no pole at the origin
    f = RF(P(num), P(den))
    assert list(f.series(15)) == fraction_series(num, [Fraction(c) for c in den], 15)


_SPLIT_FACTORS = [
    ONE_MINUS_Z,
    cyclotomic(2),
    cyclotomic(3),
    cyclotomic(6),
    P((2, -1)),  # non-monic
    P((2, -2)),  # not primitive
    P((Fraction(1, 2), 0, Fraction(-3, 4))),  # Fraction coefficients
]


@PROPERTY
@given(
    st.lists(_fractions, max_size=6),
    st.sampled_from(_SPLIT_FACTORS),
    st.integers(0, 4),
    st.sampled_from(_SPLIT_FACTORS),
    st.integers(0, 2),
)
@example([], ONE_MINUS_Z, 0, ONE_MINUS_Z, 0)  # the zero polynomial
@example([1, Fraction(-1, 2)], P((2, -1)), 0, ONE_MINUS_Z, 0)  # den of 1/(2-z)
@example([1, Fraction(-1, 2)], ONE_MINUS_Z, 3, P((2, -1)), 1)
@example([Fraction(3, 7)], cyclotomic(3), 2, cyclotomic(6), 2)
def test_split_factor_matches_divmod_loop(base, factor, m, other, n):
    poly = P(base) * factor**m * other**n
    assert split_factor(poly, factor) == divmod_split_factor(poly, factor)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.integers(0, 3),
    st.one_of(st.lists(_integers, max_size=4), st.lists(_fractions, max_size=4)),
    st.integers(0, 40),
)
@example(0, [], 0)  # the zero polynomial: 0^0 = 1
@example(0, [], 7)
@example(2, [3, -1], 5)  # a zero constant term: z^2 (3 - z)
@example(0, [1, -1], 40)  # the catalog's (1 - z)^n
@example(0, [1, 0, -1], 40)
@example(1, [Fraction(1, 2), 0, Fraction(-3, 4)], 39)
@example(0, [Fraction(-5, 3)], 11)  # a constant
def test_power_matches_square_and_multiply(shift, coeffs, e):
    poly = P([0] * shift + coeffs)
    power = poly**e
    assert power.coeffs == tuple(square_and_multiply(poly.coeffs, e))
    _assert_normal(power.coeffs)
    if poly:
        assert RF(1, poly) ** e == RF(1, power)
        assert RF(1, poly) ** -e == RF(power)


# -- ints where integral: the representation equals the all-Fraction one -------


def _assert_normal(coeffs):
    """Every coefficient is an int or a Fraction that is not integral."""
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def _fractions_of(poly):
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


def _sympy_canonical(num, den):
    """Canonical (num, den) of num/den, two sympy Polys over QQ, as
    all-Fraction tuples: reduced, with den(0) = 1, or den monic when
    den(0) = 0."""
    g = num.gcd(den)
    num, den = num.quo(g), den.quo(g)
    c = den.coeff_monomial(1) or den.LC()
    num, den = num.quo_ground(c), den.quo_ground(c)
    return (() if num.is_zero else _fractions_of(num)), _fractions_of(den)


def _sympy_poly(poly):
    return sympy.Poly(list(reversed(poly.coeffs)) or [0], _Z, domain="QQ")


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    st.lists(_fractions, max_size=5),
    st.lists(_fractions, max_size=4),
    st.integers(-20, 20).filter(bool),
    st.integers(0, 3),
)
@example([], [], 1, 0)
@example([3, 6], [Fraction(3, 2)], 2, 2)  # integral after the scale by 1/den(0)
@example([Fraction(1, 2), Fraction(-1, 2)], [-1], 1, 1)  # cancels to 1/2
@example([1], [Fraction(-1, 2)], 2, 0)  # 1/(2 - z/2)
def test_coefficients_are_ints_or_proper_fractions(num, den, d0, e):
    a, b = P(num), P([d0] + den)
    pole = RF(1, ONE_MINUS_Z**e)
    polys = [a, b, a + b, a - b, a * b, 3 * a, a * Fraction(1, 3), b**2, b.monic(), a.monic()]
    polys += [split_factor(a * ONE_MINUS_Z**e, ONE_MINUS_Z)[1]]
    for poly in polys:
        _assert_normal(poly.coeffs)
        as_fractions = tuple(Fraction(c) for c in poly.coeffs)
        assert poly.coeffs == as_fractions
        assert hash(poly) == hash(("Polynomial", as_fractions))
    for x in (0, -2, Fraction(1, 3), Fraction(-7, 4)):
        value = a.evaluate(x)
        assert type(value) is Fraction
        assert value == sum(Fraction(c) * Fraction(x) ** k for k, c in enumerate(a.coeffs))
    f = RF(a, b)
    A, B, E = _sympy_poly(a), _sympy_poly(b), _sympy_poly(ONE_MINUS_Z**e)
    cases = [
        (f, (A, B)),
        (f + pole, (A * E + B, B * E)),
        (f * f, (A * A, B * B)),
        (f - pole * f, (A * E - A, B * E)),
    ]
    for g, (num_poly, den_poly) in cases:
        _assert_normal(g.num.coeffs)
        _assert_normal(g.den.coeffs)
        want = _sympy_canonical(num_poly, den_poly)
        assert (g.num.coeffs, g.den.coeffs) == want
        assert hash(g) == hash(("RationalFunction", *want))
        series = g.series(8)
        _assert_normal(series)
        assert series == tuple(fraction_series(g.num.coeffs, g.den.coeffs, 8))
