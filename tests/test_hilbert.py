import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from poincount import catalog
from poincount.algebra import ONE_MINUS_Z, Polynomial, RationalFunction
from poincount.hilbert import (
    HilbertSpec,
    HorizonTooShort,
    NotEventuallyPolynomial,
    equal_series,
    gf_from_hilbert,
    hilbert_values_spec,
    spec_from_gf,
)

from oracles import (
    binom_in_k,
    finite_differences,
    fit_constant_tail,
    gf_from_hilbert_termwise,
    horner_h,
    shift_down_horner,
    tail_values,
)

P = Polynomial
RF = RationalFunction


def riemannian2_spec():
    return HilbertSpec({2: 1, 3: 1}, 4, [3, 4])  # k - 1 from k = 4


def test_h_value_examples():
    spec = riemannian2_spec()
    assert spec.values(3)[3] == 1
    assert spec.values(0)[0] == 0  # gap below the tail defaults to zero
    self_dual = catalog.hilbert_spec("self-dual-metrics", n=4)
    # tail (1/6)(k-1)(k^2+25k+36) at k=4, cross-checked against the series
    assert self_dual.values(4)[4] == 76
    p = catalog.claimed_poincare("self-dual-metrics", n=4)
    assert p.coefficient(4) == 76


def test_gf_from_hilbert_riemannian2():
    gf = gf_from_hilbert(riemannian2_spec())
    assert gf == RF(P((0, 0, 1, -1, 2, -1)), ONE_MINUS_Z**2)


def test_gf_from_hilbert_zero():
    assert gf_from_hilbert(HilbertSpec({}, 0, [])) == RF.zero()


def test_gf_from_hilbert_cubic_tail():
    spec = HilbertSpec({}, 4, [6, 8])  # 2(k-1) from k = 4
    assert gf_from_hilbert(spec) == RF(2 * P((0, 0, 0, 0, 3, -2)), ONE_MINUS_Z**2)


def test_spec_from_gf_ode_general():
    f = RF(P((0, 0, 0, 0, 0, 3, 2, -7, 3)), ONE_MINUS_Z**3)
    spec = spec_from_gf(f, 40)
    assert spec.exceptions == {5: 3}
    assert spec.tail_start == 6
    assert spec.tail == binom_in_k(0, 2) - 4  # k(k-1)/2 - 4


def test_spec_from_gf_rejects_other_poles():
    f = RF(1, P((1, 0, -1)) ** 2)
    with pytest.raises(NotEventuallyPolynomial):
        spec_from_gf(f, 40)


def test_spec_from_gf_zero():
    spec = spec_from_gf(RF.zero(), 10)
    assert spec == HilbertSpec({}, 0, [])


def test_spec_from_gf_short_horizon():
    f = RF(P((0, 0, 0, 0, 0, 3, 2, -7, 3)), ONE_MINUS_Z**3)
    with pytest.raises(HorizonTooShort):
        spec_from_gf(f, 7)


def test_equal_series_full_match():
    spec = catalog.hilbert_spec("self-dual-metrics", n=4)
    p = catalog.claimed_poincare("self-dual-metrics", n=4)
    assert equal_series(p, spec, 40) is None


def test_equal_series_first_mismatch():
    assert equal_series(RF(1, ONE_MINUS_Z), HilbertSpec({}, 0, []), 10) == (0, 0, 1)
    # the first of several mismatches, as (k, h(k), coefficient)
    spec = HilbertSpec({0: 1, 1: 2}, 2, [3])  # 1, 2, 3, 3, ... against 1, 2, 3, 4, ...
    assert equal_series(RF(1, ONE_MINUS_Z**2), spec, 10) == (3, 3, 4)


def test_equal_series_almost_complex_table_row():
    spec = catalog.hilbert_spec("almost-complex", n=2)
    p = catalog.claimed_poincare("almost-complex", n=2)
    assert equal_series(p, spec, 6) is None
    assert spec.values(6) == [0, 0, 2, 24, 60, 116, 196]


def test_round_trip_all_catalog_specs():
    for entry in catalog.list_entries():
        if entry.hilbert is None:
            continue
        for sample in entry.samples(6):
            spec = catalog.hilbert_spec(entry.id, **sample)
            gf = gf_from_hilbert(spec)
            assert spec_from_gf(gf, 60) == spec, (entry.id, sample)


def test_gf_denominator_shape_invariant():
    for entry_id, n in [("riemannian", 5), ("kaehler", 3), ("fedosov", 2)]:
        spec = catalog.hilbert_spec(entry_id, n=n)
        gf = gf_from_hilbert(spec)
        assert gf.den == ONE_MINUS_Z ** (spec.tail.degree + 1)
        assert gf.den.coefficient(0) != 0


def test_h_values_match_coefficients_to_60():
    for entry_id, n in [("riemannian", 4), ("almost-complex", 3), ("weyl", 2)]:
        spec = catalog.hilbert_spec(entry_id, n=n)
        series = gf_from_hilbert(spec).series(60)
        for k in range(61):
            assert series[k] == spec.values(k)[k]


def test_canonicalization_minimizes_tail_start():
    # value at k = 3 agrees with the tail, so the onset pulls down to 3
    spec = HilbertSpec({3: 2}, 4, [3, 4])  # k - 1 from k = 4
    assert spec.tail_start == 3
    assert spec.exceptions == {}


def test_exception_equal_to_zero_is_dropped():
    spec = HilbertSpec({1: 0, 2: 5}, 3, [7])
    assert spec.exceptions == {2: 5}
    assert spec.values(1)[1] == 0


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        HilbertSpec({5: 1}, 3, [1])  # exception beyond tail_start
    with pytest.raises(ValueError):
        HilbertSpec({1: -2}, 3, [1])  # negative value
    with pytest.raises(ValueError):
        HilbertSpec({}, 0, [0, 0, -2])  # tail k - k^2, negative for large k
    with pytest.raises(ValueError):
        HilbertSpec({}, 0, [Fraction(1, 2)])  # non-integer tail


def _raises_not_a_count(named):
    """pytest.raises for the constructor's ValueError on the value `named`."""
    return pytest.raises(ValueError, match=f"^{re.escape(named)} is not a nonnegative integer$")


def test_every_tail_form_names_the_value_it_refuses():
    with _raises_not_a_count("tail(0) = -2"):
        HilbertSpec({}, 0, [-2, -1])  # k - 2 from k = 0
    with _raises_not_a_count("tail(1) = -1"):
        HilbertSpec({}, 0, [1, -1])  # negative from the second value on
    with _raises_not_a_count("tail(2) = -3"):
        HilbertSpec({}, 2, (-3,))
    with _raises_not_a_count("tail(3) = 1/2"):
        HilbertSpec({}, 3, [Fraction(1, 2)])
    with _raises_not_a_count("tail(4) = 1/2"):
        HilbertSpec({}, 3, [1, Fraction(1, 2)])


def test_bool_is_not_an_integer_value():
    # True is an int to Python, and would print as `true` in JSON
    with _raises_not_a_count("h(1) = True"):
        HilbertSpec({1: True}, 3, [1])
    with _raises_not_a_count("h(0) = False"):
        HilbertSpec({0: False}, 3, [1])
    with _raises_not_a_count("tail(3) = True"):
        HilbertSpec({}, 3, [True])
    with _raises_not_a_count("tail(4) = False"):
        HilbertSpec({}, 3, [1, False])
    assert HilbertSpec({1: 1}, 3, [1]).values(4) == [0, 1, 0, 1, 1]


def test_a_tail_not_given_by_its_values_is_refused():
    for tail, kind in [(1, "int"), (P((1,)), "Polynomial"), (Fraction(1), "Fraction"), ("1", "str")]:
        with pytest.raises(
            TypeError, match=f"^tail must be a list or tuple of its integer values, not {kind}$"
        ):
            HilbertSpec({}, 3, tail)


def test_shift_down():
    spec = riemannian2_spec()
    shifted = spec.shift_down(1)
    for k in range(0, 30):
        assert shifted.values(k)[k] == spec.values(k + 1)[k + 1]


def test_hilbert_values_spec_fits_polynomial_tail():
    values = [0, 0, 7, 1, 2] + [3 * k for k in range(5, 30)]
    spec = hilbert_values_spec(values)
    assert spec.values(29) == values


def test_finite_differences_and_shift_helpers():
    assert finite_differences([1, 4, 9, 16], 1) == [3, 5, 7]
    q = HilbertSpec({}, 0, [0, 1, 4]).shift_down(2)  # k^2 -> (k+2)^2
    assert q.tail == P((4, 4, 1))
    assert [q.tail.evaluate(k) for k in range(4)] == q.values(3) == [4, 9, 16, 25]


def _basis_tail(tail_start, basis):
    """The tail sum_j basis[j] C(k - tail_start, j) as an oracle Polynomial."""
    tail = P.zero()
    for j, c in enumerate(basis):
        tail = tail + binom_in_k(-tail_start, j) * c
    return tail


@st.composite
def hilbert_specs(draw):
    """Specs with up to 8 exceptional values (zeros allowed), any onset from 0,
    and a tail of degree -1 (zero) to 8 with nonnegative binomial-basis
    coefficients at the onset, so every tail value is a nonnegative integer;
    the tail is given by its values, with up to 3 past its degree."""
    tail_start = draw(st.integers(0, 8))
    values = draw(st.lists(st.integers(0, 50), min_size=tail_start, max_size=tail_start))
    basis = draw(st.lists(st.integers(0, 30), max_size=9))
    tail = tail_values(_basis_tail(tail_start, basis), tail_start, draw(st.integers(0, 3)))
    return HilbertSpec(dict(enumerate(values)), tail_start, tail)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(hilbert_specs())
@example(HilbertSpec())  # the default tail (), the zero tail
@example(HilbertSpec({0: 3, 2: 1}, 4, [0, 0]))  # zero tail: a polynomial; zeros of the row dropped
@example(HilbertSpec({}, 0, [comb(k, 8) for k in range(9)]))  # onset 0, degree 8
@example(HilbertSpec({1: 7}, 3, [2 * comb(i, 8) + 1 for i in range(9)]))
def test_gf_from_hilbert_matches_termwise_oracle_and_is_canonical(spec):
    gf = gf_from_hilbert(spec)
    oracle = gf_from_hilbert_termwise(spec)
    assert (gf.num.coeffs, gf.den.coeffs) == (oracle.num.coeffs, oracle.den.coeffs)
    again = RF(gf.num, gf.den)
    assert (again.num.coeffs, again.den.coeffs) == (gf.num.coeffs, gf.den.coeffs)


@st.composite
def signed_hilbert_specs(draw):
    """Specs drawn with a leading binomial-basis coefficient of either sign,
    keeping only the specs the constructor accepts: those whose tail it
    certifies nonnegative."""
    tail_start = draw(st.integers(0, 8))
    values = draw(st.lists(st.integers(0, 50), min_size=tail_start, max_size=tail_start))
    basis = draw(st.lists(st.integers(0, 60), max_size=8))
    basis.append(draw(st.integers(-3, 3)))
    tail = tail_values(_basis_tail(tail_start, basis), tail_start, draw(st.integers(0, 3)))
    try:
        return HilbertSpec(dict(enumerate(values)), tail_start, tail)
    except ValueError:
        reject()


def _oracle_values(spec, k_max, shift=0):
    """h(shift), ..., h(shift + k_max) by the Fraction-Horner oracle, which
    raises ValueError at a negative value."""
    return [horner_h(spec, k) for k in range(shift, shift + k_max + 1)]


def _assert_matches_oracle(spec, k_max):
    want = _oracle_values(spec, k_max)  # the spec is certified nonnegative
    got = spec.values(k_max)
    assert got == want and all(type(v) is int for v in got)
    for k, value in enumerate(want):
        at_k = spec.values(k)[k]
        assert at_k == value and type(at_k) is int


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.one_of(hilbert_specs(), signed_hilbert_specs()), st.integers(0, 40), st.integers(0, 6))
@example(HilbertSpec({}, 0, []), 5, 2)  # zero tail
@example(HilbertSpec({0: 3, 2: 1}, 4, [0]), 6, 1)  # zero tail after exceptions
@example(HilbertSpec({}, 0, [comb(k, 8) for k in range(9)]), 30, 3)  # onset 0, degree 8
@example(HilbertSpec({1: 7}, 3, [2 * comb(i, 8) + 1 for i in range(9)]), 25, 5)
@example(HilbertSpec({}, 0, [30, 21, 14]), 15, 2)  # k^2 - 10 k + 30, certified at k = 5
@example(HilbertSpec({3: 2}, 4, [3, 4]), 10, 0)  # onset pulled down to 3
@example(  # degree 41
    HilbertSpec({0: 2}, 3, [comb(k, 41) + 5 * comb(k - 3, 40) + 1 for k in range(3, 45)]), 60, 4
)
def test_values_and_h_match_fraction_horner_oracle(spec, k_max, m):
    _assert_matches_oracle(spec, k_max)
    shifted = spec.shift_down(m)  # the shift of a certified tail is certified
    _assert_matches_oracle(shifted, k_max)
    assert _oracle_values(shifted, k_max) == _oracle_values(spec, k_max, shift=m)
    assert shifted == shift_down_horner(spec, m)


_REFUSAL = re.compile(r"tail\((\d+)\) = (-\d+) is not a nonnegative integer")


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.integers(0, 8),
    st.lists(st.integers(0, 50), max_size=8),
    st.lists(st.integers(-3, 30), max_size=9),
    st.integers(0, 3),
)
@example(0, [], [], 0)  # the zero tail
@example(4, [3, 0, 1], [], 2)  # zero values past the exceptions
@example(0, [], [0] * 8 + [1], 0)  # C(k, 8)
@example(3, [0, 7], [1] + [0] * 7 + [2], 1)
@example(0, [], [30, -9, 2], 0)  # k^2 - 10 k + 30, certified after rolling to k = 5
@example(0, [], [100, -1, -2], 0)  # 100 - k^2, refused at k = 11
@example(4, [0, 0, 0, 2], [3, 1], 0)  # onset pulled down to 3
def test_values_form_gives_the_polynomial_forms_spec(tail_start, head, basis, extra):
    """A tail given by the values of the oracle polynomial, `extra` of them
    past its degree, makes the spec with that tail polynomial and the same
    spec as deg + 1 values; or both refuse it at its first negative value."""
    exceptions = dict(enumerate(head[:tail_start]))
    poly = _basis_tail(tail_start, basis)
    try:
        want = HilbertSpec(exceptions, tail_start, tail_values(poly, tail_start))
    except ValueError as refused:
        found = _REFUSAL.fullmatch(str(refused))
        assert found, refused
        k, value = int(found[1]), int(found[2])
        assert poly.evaluate(k) == value
        assert all(poly.evaluate(i) >= 0 for i in range(tail_start, k))
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused))}$"):
            HilbertSpec(exceptions, tail_start, tail_values(poly, tail_start, extra))
        return
    got = HilbertSpec(exceptions, tail_start, tail_values(poly, tail_start, extra))
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    oracle = [exceptions.get(k, 0) if k < tail_start else poly.evaluate(k) for k in range(41)]
    assert got.values(40) == oracle
    g, w = gf_from_hilbert(got), gf_from_hilbert_termwise(got)
    assert (g.num.coeffs, g.den.coeffs) == (w.num.coeffs, w.den.coeffs)
    assert got.tail == poly  # read off the Newton row: the tail given


def test_a_tail_that_turns_negative_is_refused_at_construction():
    # negative from k = 11, past the deg + 1 points that show it integral
    with pytest.raises(ValueError, match=r"^tail\(11\) = -21 is not a nonnegative integer$"):
        HilbertSpec({}, 0, [100, 99, 96])  # 100 - k^2
    with pytest.raises(ValueError, match=r"^tail\(13\) = -1 is not a nonnegative integer$"):
        HilbertSpec({}, 0, [12, 11])  # 12 - k
    # k^2 - 10 k + 30 dips to 5 at k = 5 and stays nonnegative
    assert HilbertSpec({}, 0, [30, 21, 14]).values(7) == [30, 21, 14, 9, 6, 5, 6, 9]


# -- one tail-fitting rule: confirm = 1 is the strata table's constant-tail fit --

#: the x-reparam engine rows sigma0..sigma6 at k_max = 9, seed 2024; the rows at
#: k_max = 6..8 are their prefixes
XREPARAM_ROWS = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [0, 1, 0, 1, 1, 1, 1, 1, 1, 1],
    [0, 1, 1, 2, 2, 2, 2, 2, 2, 2],
    [0, 1, 1, 1, 2, 2, 2, 2, 2, 2],
    [0, 1, 1, 0, 2, 2, 2, 2, 2, 2],
    [0, 1, 1, 1, 3, 3, 3, 3, 3, 3],
]


def _assert_fits_like_oracle(row):
    spec = hilbert_values_spec(row, confirm=1)
    assert spec == fit_constant_tail(row), row
    assert gf_from_hilbert(spec) == gf_from_hilbert(fit_constant_tail(row)), row


@pytest.mark.parametrize("k_max", [6, 7, 8, 9])
def test_confirm_one_fits_the_xreparam_rows_like_the_constant_tail_oracle(k_max):
    for row in XREPARAM_ROWS:
        _assert_fits_like_oracle(row[: k_max + 1])


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.integers(0, 6), max_size=8),
    st.integers(0, 6),
    st.integers(3, 6),
)
@example([], 0, 3)
@example([0, 1, 1, 0], 2, 3)
def test_confirm_one_matches_constant_tail_oracle(head, c, repeats):
    _assert_fits_like_oracle(head + [c] * repeats)


@pytest.mark.parametrize("row", [[0, 1, 0, 1, 1], [0, 1, 1, 1, 2, 2]])
def test_confirm_one_short_horizon(row):
    with pytest.raises(ValueError):
        fit_constant_tail(row)
    with pytest.raises(HorizonTooShort, match="extend k_max"):
        hilbert_values_spec(row, confirm=1)


def test_default_confirm_is_three():
    row = [0, 1, 1, 0, 2, 2, 2, 2]  # the sigma5 row at k_max = 7
    assert hilbert_values_spec(row, confirm=1) == HilbertSpec({1: 1, 2: 1}, 4, [2])
    with pytest.raises(HorizonTooShort):
        hilbert_values_spec(row)  # a constant tail needs d + 3 = 4 zero differences
    assert hilbert_values_spec(row + [2]) == HilbertSpec({1: 1, 2: 1}, 4, [2])
