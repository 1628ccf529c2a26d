import functools
import importlib.util
import io
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poincount.exprs import ExpressionError, parse_expression, parse_rational_function
from poincount.jetflow import (
    BadPoint,
    BadSample,
    InvariantViolation,
    JetSpace,
    NonlinearParameters,
    OrderExceeded,
    ParamInfo,
    ProlongPlan,
    Scenario,
    StratumCase,
    UnknownScenario,
    BUILTIN_SCENARIOS,
    METRIC2D,
    X_REPARAM,
    annihilation_check,
    distribution_example,
    get_scenario,
    lie_example_table,
    prolong,
    sample_stratum_point,
    stratum_codim_sequence,
    stratum_columns,
    _StratumEngine,
)
from poincount import jetflow
from poincount.catalog import hilbert_spec
from poincount.cli import run
from poincount.jetpoly import Poly, _echelon, matrix_rank, rank_profile

from oracles import (
    acting_parameter_count,
    coordinates,
    derivative_orders,
    jet_columns,
    poly_diff,
    prolonged_fields_oracle,
    prolonged_rows_oracle,
    rational_rank,
    rows_at,
    substitute,
    substitution_plan,
    three_point_ranks,
    total_derivative,
    truncated_mul,
    xreparam_stratum_oracle,
)

SC = get_scenario("x-reparam")


# -- total derivative --------------------------------------------------------


def test_total_derivative_coordinate_shift():
    space = SC.space(2)
    u10 = Poly.variable(space.jet_var(0, (1, 0)))
    assert total_derivative(space, u10, 0) == Poly.variable(space.jet_var(0, (2, 0)))


def test_total_derivative_product_rule():
    space = SC.space(2)
    x = Poly.variable(0)
    u01 = Poly.variable(space.jet_var(0, (0, 1)))
    u11 = Poly.variable(space.jet_var(0, (1, 1)))
    assert total_derivative(space, x * u01, 0) == u01 + x * u11


def test_total_derivative_order_overflow():
    space = SC.space(1)
    u10 = Poly.variable(space.jet_var(0, (1, 0)))
    with pytest.raises(OrderExceeded):
        total_derivative(space, u10, 0)


# -- prolongation ------------------------------------------------------------


def _point(space, values):
    """{column: Fraction} of named coordinate values, the base at the origin
    unless a base value is named."""
    point = dict.fromkeys(range(space.p), Fraction(0))
    point.update({space.var_by_name(name): Fraction(v) for name, v in values.items()})
    return point


def _generic_point(space, seed):
    return _point(space, _generic_point_values(space, random.Random(seed)))


def _dense(row, dim):
    out = [Fraction(0)] * dim
    for col, c in row.items():
        out[col] = c
    return out


def _exact_rows(plan, point):
    """prolong's rows as dense exact rows {param: [Fraction] * dim}: each
    integer entry over the scale; the integer rows hold no zero entry."""
    scale, rows = prolong(plan, point)
    assert isinstance(scale, int) and scale > 0
    assert all(row and all(isinstance(c, int) and c for c in row.values()) for row in rows.values())
    return {
        key: _dense({col: Fraction(c, scale) for col, c in row.items()}, plan.space.dim)
        for key, row in rows.items()
    }


def _engine_rows(engine, point):
    """The engine's rows at the point as dense exact rows: the integer rows
    of prolong in parameter order, each divided by the one scale."""
    return list(_exact_rows(engine.plan, point).values())


def test_prolong_fiber_translation_is_unchanged():
    space = SC.space(3)
    plan, params = SC.instantiate(space)
    rows = _exact_rows(plan, _generic_point(space, 3))
    d_du = next(i for i, info in enumerate(params) if info.name == "fixed[2]")
    unit = [Fraction(0)] * space.dim
    unit[space.jet_var(0, (0, 0))] = Fraction(1)
    assert rows[d_du] == unit


def test_prolong_constant_translation_geometric_vs_vertical():
    # geometric prolongation of the constant-f generator slice: the constant
    # parameter produces a pure base translation with no fiber components
    space = SC.space(3)
    plan, params = SC.instantiate(space)
    const_param = next(
        i for i, info in enumerate(params) if info.name == "f[(0, 0)]"
    )
    rows = _exact_rows(plan, _generic_point(space, 4))
    unit = [Fraction(0)] * space.dim
    unit[0] = Fraction(1)
    assert rows[const_param] == unit


def test_prolong_order2_components_match_closed_form():
    # components on order-2 coordinates at points with u10 = 0 equal
    # -(i f_{i-1,j} u20 + j f_{i,j-1} u11), with f_{a,b} the value of the
    # (a,b) partial at the origin
    space = SC.space(2)
    plan, params = SC.instantiate(space)
    values = _generic_point_values(space, random.Random(6))
    values["u10"] = Fraction(0)
    rows = _exact_rows(plan, _point(space, values))

    def monomial_partial_at_origin(beta, gamma):
        # d^gamma(x^beta)(0) is nonzero only for gamma = beta, value beta!
        if beta != gamma:
            return 0
        out = 1
        for b in beta:
            for step in range(1, b + 1):
                out *= step
        return out

    for pid, info in enumerate(params):
        if not info.name.startswith("f["):
            continue  # the fixed generators d/dy and d/du
        row = rows.get(pid, [0] * space.dim)
        beta = eval(info.name.split("[")[1].split("#")[0].rstrip("]"))
        for (i, j) in [(2, 0), (1, 1), (0, 2)]:
            c1 = monomial_partial_at_origin(beta, (i - 1, j)) if i else 0
            c2 = monomial_partial_at_origin(beta, (i, j - 1)) if j else 0
            expected = -(i * c1 * values["u20"] + j * c2 * values["u11"])
            assert row[space.jet_var(0, (i, j))] == expected, ((i, j), info.name)


def _projected_rows_match(scenario, k, j, seed):
    # engine(k) rows cut to the order-j columns equal engine(j) rows at the
    # same jet (coordinates are sorted by order, so J^j is a prefix of J^k);
    # the parameters that only engine(k) has leave zero rows on J^j
    big = _StratumEngine(scenario, k)
    small = _StratumEngine(scenario, j)
    values = _generic_point_values(big.space, random.Random(seed))
    low_names = set(small.space.coordinate_names())
    low_values = {name: v for name, v in values.items() if name in low_names}
    width = big.cols_at[j]
    cut = [row[:width] for row in _engine_rows(big, _point(big.space, values))]
    low = _engine_rows(small, _point(small.space, low_values))
    assert sorted(row for row in cut if any(row)) == sorted(low), (k, j)


def test_prolong_projection_consistency():
    for j in range(7):
        _projected_rows_match(SC, 7, j, seed=40 + j)


# -- orbit ranks -------------------------------------------------------------


def _generic_point_values(space, rng):
    values = {}
    for var in jet_columns(space):
        values[space.name_of(var)] = Fraction(
            rng.randint(1, 19), rng.randint(1, 7)
        )
    return values


def _orbit_rank(scenario, values, k):
    """Rank of the engine's tangent rows at the named jet point."""
    engine = _StratumEngine(scenario, k)
    rows = prolong(engine.plan, _point(engine.space, values))[1]
    return matrix_rank(rows.values(), engine.space.dim)


def test_orbit_rank_open_orbit():
    space = SC.space(3)
    values = _generic_point_values(space, random.Random(5))
    rank = _orbit_rank(SC, values, 3)
    assert rank == space.dim == 12  # s_3 = 0: the orbit is open


def test_orbit_rank_sigma1_codimension():
    rng = random.Random(31)
    space = SC.space(2)
    values = _generic_point_values(space, rng)
    values["u10"] = Fraction(0)
    rank = _orbit_rank(SC, values, 2)
    stratum_dim = space.dim - 1
    assert stratum_dim - rank == 2  # two invariants of order <= 2


def test_orbit_rank_no_generators():
    empty = Scenario(
        {
            "id": "empty",
            "base": ["x", "y"],
            "fiber": ["u"],
            "generators": [],
            "strata": [],
        }
    )
    space = empty.space(1)
    values = _generic_point_values(space, random.Random(1))
    assert _orbit_rank(empty, values, 1) == 0


def test_orbit_rank_bad_point():
    space = SC.space(1)
    with pytest.raises(BadPoint):
        space.var_by_name("nonsense")
    plan, _ = SC.instantiate(space)
    values = _generic_point_values(space, random.Random(2))
    values["x"] = Fraction(1)  # rows are evaluated over the base origin only
    with pytest.raises(BadPoint, match="origin"):
        prolong(plan, _point(space, values))


# -- stratum sequences ---------------------------------------------------------


def test_stratum_sequence_sigma1():
    _, h = stratum_codim_sequence(SC, "sigma1", 5, 11)
    assert h == [0, 1, 1, 1, 1, 1]


def test_stratum_sequence_sigma3():
    _, h = stratum_codim_sequence(SC, "sigma3", 5, 11)
    assert h == [0, 1, 1, 2, 2, 2]


def test_stratum_sequence_sigma6():
    _, h = stratum_codim_sequence(SC, "sigma6", 6, 11)
    assert h[4:] == [3, 3, 3]


def test_stratum_sequence_seed_independent():
    results = {
        tuple(stratum_codim_sequence(SC, "sigma2", 6, seed)[1])
        for seed in (1, 2, 3)
    }
    assert len(results) == 1


def test_stratum_sequences_match_closed_form_oracle():
    for index in range(7):
        label = f"sigma{index}"
        _, h_engine = stratum_codim_sequence(SC, label, 5, 321)
        _, h_oracle = xreparam_stratum_oracle(index, 5, 654)
        assert h_engine == h_oracle, label


def test_sigma5_engine_value_and_tabulated_row_finding():
    # The tabulated reference row for sigma5 is (z - z^3 + z^4)/(1-z), i.e.
    # h_4 = 1.  The engine and the independent closed-form oracle agree on
    # h_4 = 2: at order 4 exactly three parameter rows (f_xx, f_xy, f_yy
    # through u12) reach the five new coordinates, so h_4 = 5 - 3 = 2.  The
    # discrepancy is surfaced here and in the acceptance suite; it is never
    # corrected away.
    _, h_engine = stratum_codim_sequence(SC, "sigma5", 7, 2024)
    _, h_oracle = xreparam_stratum_oracle(5, 7, 99)
    assert h_engine == h_oracle == [0, 1, 1, 0, 2, 2, 2, 2]
    tabulated = parse_rational_function("(z - z^3 + z^4)/(1-z)")
    tabulated_h = [int(c) for c in tabulated.series(7)]
    assert tabulated_h == [0, 1, 1, 0, 1, 1, 1, 1]
    assert h_engine != tabulated_h  # the documented finding


def test_genericity_failure_error_exists():
    from poincount.jetflow import GenericityFailure

    assert issubclass(GenericityFailure, RuntimeError)


# -- the full table ------------------------------------------------------------


def test_lie_example_table_rows(monkeypatch):
    instantiations = []
    instantiate = Scenario.instantiate

    def counted(self, space):
        instantiations.append(self.id)
        return instantiate(self, space)

    monkeypatch.setattr(Scenario, "instantiate", counted)
    rows = {row.label: row for row in lie_example_table(7, 2024)}
    assert instantiations == ["x-reparam"]  # one engine serves all strata
    reference = {
        "sigma0": "0",
        "sigma1": "z/(1-z)",
        "sigma2": "(z-z^2+z^3)/(1-z)",
        "sigma3": "(z+z^3)/(1-z)",
        "sigma4": "(z+z^4)/(1-z)",
        "sigma6": "(z+2*z^4)/(1-z)",
        "sigma-infinity": "z/(1-z)",
    }
    for label, text in reference.items():
        assert rows[label].counting_function == parse_rational_function(text), label
    assert rows["sigma5"].counting_function == parse_rational_function(
        "(z-z^3+2*z^4)/(1-z)"
    )
    assert rows["sigma-infinity"].h == (0, 1, 1, 1, 1, 1, 1, 1)


# -- annihilation ---------------------------------------------------------------


@pytest.mark.parametrize(
    "label,expr",
    [
        (label, expr)
        for label, exprs in SC.invariants.items()
        for expr in exprs
    ],
)
def test_listed_invariants_annihilated(label, expr):
    assert annihilation_check(SC, expr, label, seed=11)


def test_negative_control_not_annihilated():
    assert not annihilation_check(SC, "u20", "sigma1", seed=11)


def test_annihilation_bad_sample():
    # u10 vanishes identically on sigma1, so 1/u10 cannot be sampled
    with pytest.raises(BadSample):
        annihilation_check(SC, "u01/u10", "sigma1", seed=3)


def test_annihilation_needs_tangent_generators():
    # f d/dx moves u01 = 0 off itself where u10 != 0: an annihilation
    # verdict on a stratum the action leaves would mean nothing
    bogus = StratumCase("bogus", ("u01",), ("u10",))
    refused = "generator not tangent to stratum 'bogus' at coordinate 'u01'"
    with pytest.raises(InvariantViolation, match=refused):
        stratum_codim_sequence(SC, bogus, 2, seed=1)
    with pytest.raises(InvariantViolation, match=refused):
        annihilation_check(SC, "u02", bogus, seed=1)


# -- metric lift -----------------------------------------------------------------


def metric2d_h(k_max, seed):
    return stratum_codim_sequence(get_scenario("metric2d"), "generic", k_max, seed)[1]


def test_metric2d_low_orders():
    assert metric2d_h(1, seed=9) == [0, 0]
    assert metric2d_h(3, seed=9) == [0, 0, 1, 1]


def test_metric2d_order_four():
    assert metric2d_h(4, seed=9) == [0, 0, 1, 1, 3]


def test_metric2d_order_seven_matches_catalog():
    assert metric2d_h(7, seed=9) == hilbert_spec("riemannian", n=2).values(7)


def test_metric2d_orders_eight_and_nine_match_catalog():
    for k in (8, 9):
        assert metric2d_h(k, seed=9) == hilbert_spec("riemannian", n=2).values(k)


def test_metric2d_cost_guard():
    # the jet order range 0..9 is the one bound, for metric2d as for every scenario
    with pytest.raises(OrderExceeded):
        metric2d_h(10, seed=9)
    out, err = io.StringIO(), io.StringIO()
    assert run(["metric2d", "--kmax", "10"], stdout=out, stderr=err) == 2
    assert out.getvalue() == ""
    assert err.getvalue() == "poincount: error: jet order 10 is outside the supported range 0..9\n"


def test_stratum_condition_above_the_jet_order():
    with pytest.raises(OrderExceeded, match="'sigma3'.*'u20'.*jet order 1"):
        stratum_codim_sequence(SC, "sigma3", 1, seed=4)
    with pytest.raises(OrderExceeded, match="'sigma1'.*'u10'.*jet order 0"):
        lie_example_table(0, 2024)
    # a name that is no jet coordinate is an error, not a dropped condition
    with pytest.raises(BadPoint, match="'typo'.*'u1O'"):
        stratum_codim_sequence(SC, StratumCase("typo", (), ("u1O",)), 3, seed=1)
    with pytest.raises(BadPoint, match="'typo'.*'u2O'"):
        annihilation_check(SC, "u01", StratumCase("typo", ("u2O",), ("u10",)), seed=1)
    # an open condition above the order is dropped: sigma1's u20 != 0 at k = 1
    assert stratum_codim_sequence(SC, "sigma1", 1, seed=3)[1] == [0, 1]


# -- distribution sub-example ------------------------------------------------------


def test_distribution_example():
    reports = {rep.stratum: rep for rep in distribution_example()}
    assert reports["r != 0"].rank == 2
    assert dict(reports["r != 0"].checks) == {
        "t - s^2/r annihilated": True,
        "t - s^2/t annihilated": False,
    }
    assert reports["r = 0, s != 0"].rank == 2
    assert reports["r = s = 0"].rank == 0
    assert dict(reports["r = s = 0"].checks) == {"t annihilated": True}


def test_empty_base_scenario():
    scenario = get_scenario("distribution3d")
    for k in range(10):
        assert scenario.space(k).coordinate_names() == ["r", "s", "t"]
    s_by_stratum = {
        label: stratum_codim_sequence(scenario, label, 0, seed=3)[0]
        for label in scenario.strata
    }
    # t - s^2/r off r = 0; no invariant on r = 0, s != 0; t on the line
    assert s_by_stratum == {"r != 0": [1], "r = 0, s != 0": [0], "r = s = 0": [1]}


# -- machinery edges ---------------------------------------------------------------


def _sparse(matrix):
    """Dense int or Fraction rows as {column: int} rows: each row times the
    lcm of its denominators (which leaves every rank as it is), zeros left out."""
    out = []
    for row in matrix:
        scale = math.lcm(*[Fraction(x).denominator for x in row])
        out.append({col: int(x * scale) for col, x in enumerate(row) if x})
    return out


def test_matrix_rank_against_plain_elimination():
    rng = random.Random(8)
    for _ in range(60):
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)]
            for _ in range(4)
        ]
        ints = [[x.numerator for x in row] for row in rows]
        for matrix in (rows, ints):
            assert matrix_rank(_sparse(matrix), 5) == rational_rank(matrix)
            cuts = range(6)
            assert rank_profile(_sparse(matrix), cuts) == [
                rational_rank([row[:cut] for row in matrix]) for cut in cuts
            ]


@st.composite
def _rank_cases(draw):
    """(int rows, column count, one denominator per row).  Rows are drawn
    over a fixed set of all-zero columns; a row is free, all zero, or an
    integer combination of earlier rows."""
    n_cols = draw(st.integers(0, 7))
    zero_cols = draw(st.sets(st.integers(0, 6), max_size=3))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["free", "free", "zero", "combination"]))
        if kind == "combination" and rows:
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            row = [sum(c * r[col] for c, r in zip(coeffs, rows)) for col in range(n_cols)]
        elif kind == "zero":
            row = [0] * n_cols
        else:
            row = [0 if col in zero_cols else draw(st.integers(-4, 4)) for col in range(n_cols)]
        rows.append(row)
    dens = draw(st.lists(st.integers(1, 6), min_size=len(rows), max_size=len(rows)))
    return rows, n_cols, dens


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_rank_cases(), st.lists(st.integers(0, 7), max_size=5))
@example(([], 0, []), [])  # no rows, one cut of 0
@example(([], 4, []), [])  # no rows, several cuts
@example(([[0, 2, -3]], 3, [4]), [])  # one row
@example(([[0, 0], [0, 0]], 2, [1, 1]), [])  # zero rows
@example(([[1, 1, 0], [1, 0, 0]], 3, [1, 3]), [])  # reducing the second row fills in column 1
@example(([[2, 0, 4, 6], [3, 5, 0, 0], [1, 5, -4, -6]], 4, [1, 2, 1]), [])  # dependent via fill-in
@example(([[0, 3], [2, 1]], 2, [1, 1]), [])  # padded, a zero leads the first row
@example(([[1, 1, 1], [1, 1, 0]], 3, [1, 1]), [])  # the shorter second row displaces the first pivot
# twice the first row minus the second vanishes below column 3, and no
# other combination leads at or after it
@example(([[1, 1, 2, 0, 3, 0], [2, 2, 4, 1, 6, 0], [0, 1, 0, 0, 0, 1]], 6, [1, 2, 3]), [1, 3, 6])
# four rows lead in the two columns [0, 2): two combinations vanish
# there, and one combination of them vanishes everywhere
@example(([[1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 1, 1, 1, 0], [2, 1, 0, 1, 1]], 5, [1, 1, 2, 1]), [2, 5])
# three rows lead in the two columns [1, 3), and twice the first row
# minus the second vanishes below column 3
@example(([[1, 2, 1, 1], [2, 4, 2, 0], [0, 1, 0, 2], [0, 0, 1, 1], [0, 1, 1, 3]], 4, [1] * 5), [1, 3, 4])
# repeated cuts: empty blocks between equal cuts
@example(([[1, 1, 0, 2], [2, 2, 1, 4], [0, 0, 3, 1]], 4, [1, 3, 1]), [0, 0, 2, 2, 4, 4])
# a cut below every column; one row leads after the last cut
@example(([[0, 0, 0, 5], [0, 3, 0, 0], [0, 6, 0, 0]], 4, [1, 1, 1]), [0, 1, 3])
def test_rank_profile_parity(case, picks):
    # every prefix rank equals plain fraction elimination, on int rows and
    # on the same rows scaled by 1/d, both for one cut after each column
    # and for a sorted draw of cuts, whose blocks are wide, repeated or
    # empty; the pivots lead where they are keyed and have content 1;
    # explicit zero entries change nothing
    rows, n_cols, dens = case
    scaled = [[Fraction(x, d) for x in row] for row, d in zip(rows, dens)]
    cuts = list(range(n_cols + 1))
    drawn = sorted(cut for cut in picks if cut <= n_cols)
    for matrix in (rows, scaled):
        sparse = _sparse(matrix)
        for some in (cuts, drawn):
            assert rank_profile(sparse, some) == [
                rational_rank([row[:cut] for row in matrix]) for cut in some
            ]
        assert rank_profile(sparse, [0]) == [0]
        assert rank_profile(sparse, [0, n_cols]) == [0, rational_rank(matrix)]
        assert matrix_rank(sparse, n_cols) == rational_rank(matrix)
        for lead, pivot in _echelon(sparse, n_cols).items():
            assert min(pivot) == lead and all(pivot.values())
            assert math.gcd(*pivot.values()) == 1
        padded = [{col: row.get(col, 0) for col in range(n_cols)} for row in sparse]
        for some in (cuts, drawn):
            assert rank_profile(padded, some) == rank_profile(sparse, some)
        assert _echelon(padded, n_cols) == _echelon(sparse, n_cols)


def test_rank_profile_on_engine_rows():
    # the profile equals plain fraction elimination on every prefix of the
    # tangent rows at a seeded point: metric2d at k=3 and the 3D metric at
    # k=2, where so(n) makes rows dependent in the first blocks, and every
    # x-reparam stratum at k=7
    cases = [(METRIC2D, ["generic"], 3), (METRIC3D, ["generic"], 2), (X_REPARAM, SC.strata, 7)]
    for data, labels, k in cases:
        engine = _StratumEngine(Scenario(data), k)
        for label in labels:
            point = sample_stratum_point(
                engine.space, engine.scenario.stratum(label), random.Random(2024),
                engine.scenario.positivity,
            )
            rows = list(prolong(engine.plan, point)[1].values())
            dense = [_dense(row, engine.space.dim) for row in rows]
            assert rank_profile(rows, engine.cols_at) == [
                rational_rank([row[:cut] for row in dense]) for cut in engine.cols_at
            ], (data["id"], label)


@st.composite
def _substitution_cases(draw, coeff=st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))):
    """(poly, values, base, degree) over variables 0..5, the first `base`
    of them base variables, with coefficients drawn from `coeff`."""
    base = draw(st.integers(0, 3))

    def poly(max_terms):
        monos = st.dictionaries(st.integers(0, 5), st.integers(1, 3), max_size=3)
        terms = draw(st.lists(st.tuples(monos, coeff), max_size=max_terms))
        return Poly({tuple(sorted(mono.items())): c for mono, c in terms})

    substituted = draw(st.sets(st.integers(0, 5), max_size=3))
    values = {var: poly(4) for var in substituted}
    return poly(6), values, base, draw(st.integers(0, 5))


def _base_truncation(poly, base, degree):
    return Poly({
        mono: c for mono, c in poly.terms.items()
        if sum(e for v, e in mono if v < base) <= degree
    })


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_substitution_cases())
def test_truncated_substitution_drops_only_high_base_degrees(case):
    poly, values, base, degree = case
    full = Poly.zero()
    for mono, c in poly.terms.items():
        term = Poly({tuple((v, e) for v, e in mono if v not in values): c})
        for v, e in mono:
            if v in values:
                term = term * values[v] ** e
        full = full + term
    assert substitute(poly, values, base, degree) == _base_truncation(full, base, degree)
    for value in values.values():
        assert truncated_mul(poly, value, base, degree) == _base_truncation(
            poly * value, base, degree
        )


def _poly_results(poly, values, base, degree):
    out = [poly, -poly, poly + poly, poly - 1, 3 * poly, poly * poly]
    out += [poly_diff(poly, var) for var in range(6)]
    out.append(substitute(poly, values, base, degree))
    for value in values.values():
        out += [poly + value, poly * value, truncated_mul(poly, value, base, degree)]
    return out


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_substitution_cases(st.integers(-5, 5)), _substitution_cases())
def test_poly_integral_coefficients_stay_int(int_case, fraction_case):
    # ring operations on int coefficients build no Fraction; any other
    # coefficient is a Fraction, and equality and hashing read values only
    for poly in _poly_results(*int_case):
        assert all(type(c) is int for c in poly.terms.values()), poly
    quotients = [int_case[0] / 2, fraction_case[0] / 3]
    for poly in quotients:
        assert all(type(c) is int or c.denominator > 1 for c in poly.terms.values())
    for poly in _poly_results(*int_case) + _poly_results(*fraction_case) + quotients:
        assert all(type(c) in (int, Fraction) and c for c in poly.terms.values())
        as_fractions = {mono: Fraction(c) for mono, c in poly.terms.items()}
        assert poly.terms == as_fractions
        assert hash(poly) == hash(frozenset(as_fractions.items()))
    half, two = Poly.constant(Fraction(1, 2)), Poly.constant(Fraction(4, 2))
    assert type(half.terms[()]) is Fraction and type(two.terms[()]) is int
    assert two == Poly.constant(2) == 2 and hash(two) == hash(Poly.constant(2))
    assert Poly.variable(3).terms == {((3, 1),): 1}
    assert type(Poly.variable(3).terms[((3, 1),)]) is int
    assert type((Poly.variable(0) * 4 / 2).terms[((0, 1),)]) is int
    assert (Poly.variable(0) * 2 / 4).terms[((0, 1),)] == Fraction(1, 2)


def test_sentinel_rows_are_zero_at_origin():
    space = SC.space(4)
    plan, params = SC.instantiate(space)
    point = _generic_point(space, 17)
    assert any(info.sentinel for info in params)
    violations = [
        row for key, row in prolong(plan, point)[1].items() if params[key].sentinel and row
    ]
    assert violations == []  # the sentinel acts trivially at base-origin points


#: the field f_yy d/du on (x, y, u): order-k components read the jets of f
#: up to order k + 2, along y
FYY = {
    "id": "fyy",
    "base": ["x", "y"],
    "fiber": ["u"],
    "free_functions": ["f"],
    "generators": [{"xi": ["0", "0"], "phi": ["f_yy"]}],
    "strata": [{"label": "generic"}],
}


def test_sentinel_violation_detected_when_cutoff_too_small(monkeypatch):
    # free functions truncated below the order their tokens read: the
    # order-3 components of f d/dx read the jets of f up to order 3, so at
    # one degree too low the degree-3 sentinel acts nontrivially and the
    # engine's self-check must catch it.  Every coefficient one degree past
    # the truncation is a sentinel, so the derivatives along y that f_yy
    # d/du misses are caught too, not only those along x.
    orders = jetflow._derivative_orders

    def truncate_lower(by):
        lowered = lambda tokens: {f: r - by for f, r in orders(tokens).items()}
        monkeypatch.setattr(jetflow, "_derivative_orders", lowered)

    truncate_lower(1)
    with pytest.raises(InvariantViolation, match="sentinel"):
        _StratumEngine(Scenario(X_REPARAM), 3)
    for by in (1, 2):
        truncate_lower(by)
        with pytest.raises(InvariantViolation, match="sentinel"):
            stratum_codim_sequence(Scenario(FYY), "generic", 4, seed=1)


def test_truncation_is_read_off_the_tokens():
    # f_yy d/du declares no truncation: r_f = 2 is read off its token, so
    # no sentinel acts, every vertical jet is reached and the two base
    # directions stay
    assert stratum_codim_sequence(Scenario(FYY), "generic", 4, seed=1)[1] == [2, 0, 0, 0, 0]


def test_non_sentinel_parameters_are_n_k():
    # N_k = sum over the free functions f of each generator of
    # C(p + k + r_f, p), with r_f read off the generator text, plus one
    # parameter per fixed generator; the sentinels are the C(p + k + r_f,
    # p - 1) coefficients of degree k + r_f + 1.  metric2d: two functions
    # read to order k + 1, C(k + 3, 2) coefficients each; x-reparam:
    # C(k + 2, 2) coefficients of f and two fixed generators; mixed-orders:
    # C(k + 4, 2) of f (read to f_yy) and C(k + 2, 2) of g.
    expected = {
        "metric2d": ([6, 12, 20, 30], [6, 8, 10, 12]),
        "x-reparam": ([3, 5, 8, 12], [2, 3, 4, 5]),
        "mixed-orders": ([7, 13, 21, 31], [6, 8, 10, 12]),
    }
    for name, (counts, sentinels) in expected.items():
        params = [_StratumEngine(_scenario(name), k).params for k in range(4)]
        assert [sum(not info.sentinel for info in p) for p in params] == counts
        assert [sum(info.sentinel for info in p) for p in params] == sentinels
    for name in dict.fromkeys(name for name, _, _ in PARITY_CASES):
        scenario = _scenario(name)
        p = scenario.p
        orders = [
            r for gen in scenario.generators for r in derivative_orders(scenario, gen).values()
        ]
        for k in range(4):
            params = _StratumEngine(scenario, k).params
            fixed = sum(info.name.startswith("fixed[") for info in params)
            n_k = fixed + sum(math.comb(p + k + r, p) for r in orders)
            assert sum(not info.sentinel for info in params) == n_k, (name, k)
            assert scenario.acting_count(k) == n_k, (name, k)
            assert sum(info.sentinel for info in params) == sum(
                math.comb(p + k + r, p - 1) for r in orders
            ), (name, k)
    # each function is truncated at its own order: one base direction is
    # left, the other is a translation g d/dx
    _, h = stratum_codim_sequence(_scenario("mixed-orders"), "generic", 5, seed=1)
    assert h == [1, 0, 0, 0, 0, 0]
    # the benchmark's METRIC3D still carries a "lift_order" key, which
    # Scenario does not read: it builds the engine of the local copy
    bench = Scenario(_perfbench_scenarios().METRIC3D)
    for k in range(3):
        ours, theirs = _StratumEngine(_scenario("metric3d"), k), _StratumEngine(bench, k)
        assert ours.params == theirs.params and ours.plan.specs == theirs.plan.specs
        point = sample_stratum_point(
            ours.space, bench.stratum("generic"), random.Random(k), ours.scenario.positivity
        )
        assert prolong(ours.plan, point) == prolong(theirs.plan, point)


@pytest.mark.parametrize(
    "base, fiber, clash",
    [(["x"], ["u", "u1"], "u1"), (["x"], ["u1", "u"], "u1"), (["x", "y"], ["u", "u10"], "u10")],
)
def test_fiber_named_like_another_fibers_jet_is_refused(base, fiber, clash):
    # the clashing name is also a jet of u: u1 = u_x for p = 1, u10 = u_x for p = 2
    data = {"id": "clash", "base": base, "fiber": fiber, "generators": []}
    with pytest.raises(ValueError, match=f"fiber '{clash}' .* of fiber 'u'"):
        Scenario(data)


@pytest.mark.parametrize(
    "base, fiber, first, second",
    [
        (["x"], ["u1", "u1_"], "the jet (1,) of fiber 'u1'", "the jet (1,) of fiber 'u1_'"),
        (["u"], ["u"], "base 'u'", "fiber 'u'"),
        (["x", "x"], ["u"], "base 'x'", "base 'x'"),
    ],
)
def test_every_name_clash_is_refused(base, fiber, first, second):
    # jet against jet (u1_1), base against fiber and base against base:
    # each name would reach two columns
    data = {"id": "clash", "base": base, "fiber": fiber, "generators": []}
    with pytest.raises(ValueError, match=f"^{re.escape(first)} and {re.escape(second)} are both"):
        Scenario(data)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("fiber", [("u", "v"), ("g11", "g12"), ("u", "g1")])
def test_jet_names_are_distinct_and_read_back(p, fiber):
    # every coordinate of J^9 has its own name, and _jet_index reads each
    # jet name back to its (fiber index, multi-index)
    base = "xyz"[:p]
    space = JetSpace(9, base, fiber)
    names = space.coordinate_names()
    assert len(set(names)) == len(names) == space.dim
    assert [space._jet_index(name) for name in names[:p]] == [None] * p
    table, jets = coordinates(tuple(base), fiber), jet_columns(space)
    for alpha, cols in enumerate(space.columns):
        for var, sigma in zip(cols, space.multi_indices):
            assert space._jet_index(names[var]) == (alpha, sigma)
            assert table[names[var]] == ("jet", *jets[var]) == ("jet", alpha, sigma)


_FIBER_ALPHABET = ("u", "v", "uu", "u1", "u1_", "u_1", "u10", "u45", "u55", "g1", "g11", "x")

#: per base dimension p: a plain base (x is also a fiber name above),
#: then one with a repeated letter and one named like a fiber
_BASES = {
    0: [()],
    1: [("x",), ("u",), ("t",)],
    2: [("s", "t"), ("t", "t"), ("t", "v")],
    3: [("x", "y", "z"), ("s", "t", "s"), ("s", "u", "t")],
}

#: names no scenario of the grid has, each a near miss of some jet name
#: (u00 is order 0, u55 order 10, u1O has a letter O, u\u0661\u0662 two
#: Arabic-Indic digits); the last is 10^5 characters long
_NEAR_MISSES = (
    "u00", "u100", "u_10", "u1O", "u55", "", "u\u0661\u0662", "u" + "1" * (10**5 - 1)
)


def _verdict(build):
    """(what build() returns, None), or (None, the text of its ValueError)."""
    try:
        return build(), None
    except ValueError as exc:
        return None, str(exc)


@pytest.mark.parametrize("p", sorted(_BASES))
def test_name_decoder_and_clash_rule_match_the_name_table(p):
    # the decoder and Scenario's clash rule against the eager J^9 name
    # table (oracles.coordinates) on a grid of base and fiber names: every
    # ordered pair of fibers, and every set of three on the plain base,
    # with two fibers named like jets of u of one order (u10 comes first)
    pairs = [()] + [
        names for size in (1, 2) for names in itertools.permutations(_FIBER_ALPHABET, size)
    ]
    triples = list(itertools.combinations(_FIBER_ALPHABET, 3)) + [("u", "u01", "u10")]
    table_of = coordinates.__wrapped__  # a fresh table per case, none kept
    accepted = 0
    for base in _BASES[p]:
        for fiber in pairs + triples if base == _BASES[p][0] else pairs:
            data = {"id": "grid", "base": list(base), "fiber": list(fiber), "generators": []}
            table, expected = _verdict(lambda: table_of(base, fiber))
            scenario, refused = _verdict(lambda: Scenario(data))
            assert refused == expected, (base, fiber)
            if refused:
                continue
            accepted += 1
            space = scenario.space(9)
            assert space.coordinate_names() == list(table)[: space.dim]
            for name in [*table, *_NEAR_MISSES]:
                coordinate = table.get(name, ("base",))
                read = coordinate[1:] if coordinate[0] == "jet" else None
                assert space._jet_index(name) == read, (base, fiber, name[:20])
            if not p:
                continue
            for name in _FIBER_ALPHABET:
                kind = "base" if name in base else "fiber" if name in fiber else "jet"
                shadowed = f"free function name {name!r} is a {kind} coordinate's name"
                _, verdict = _verdict(lambda: Scenario(dict(data, free_functions=[name])))
                assert verdict == (shadowed if name in table else None), (base, fiber, name)
    assert accepted


def test_long_digit_names_are_bad_points():
    # a 10^5-character name is read character by character: a BadPoint
    # naming it, never the int digit limit's ValueError
    long = "u" + "1" * (10**5 - 1)
    for stratum in (StratumCase("long", (long,), ("u10",)), StratumCase("long", (), ("u10", long))):
        with pytest.raises(BadPoint) as refused:
            stratum_codim_sequence(SC, stratum, 3, seed=1)
        assert str(refused.value) == f"stratum 'long' names {long!r}, which is not a jet coordinate"
    invariant = f"u01 + {long}"
    with pytest.raises(BadPoint) as refused:
        annihilation_check(SC, invariant, "sigma0", seed=1)
    assert str(refused.value) == (
        f"invariant {invariant!r} names {long!r}, which is not a jet coordinate"
    )


def test_names_above_the_top_order_are_no_coordinates():
    # u55 would be a jet of order 10: no space has it, so it is a bad name
    with pytest.raises(BadPoint, match="'u55', which is not a jet coordinate"):
        stratum_codim_sequence(SC, StratumCase("high", (), ("u10", "u55")), 3, seed=1)
    with pytest.raises(BadPoint, match="'u55'"):
        stratum_codim_sequence(SC, StratumCase("high", ("u55",), ("u10",)), 3, seed=1)
    with pytest.raises(BadPoint, match="'u55', which is not a jet coordinate"):
        annihilation_check(SC, "u01 + u55", "sigma0", seed=1)


def test_stratum_names_the_space_holds_are_not_decoded(monkeypatch):
    # sampled_ranks resolves its stratum on every draw; a name of one of the
    # space's jet columns is read off the space, and only the other names,
    # base names, names above the order and typos, reach the decoder
    engine = _StratumEngine(SC, 7)
    ranks = engine.sampled_ranks(SC.stratum("sigma2"), seed=1)
    decoded = []
    decode = JetSpace._jet_index
    monkeypatch.setattr(
        JetSpace, "_jet_index", lambda space, name: decoded.append(name) or decode(space, name)
    )
    assert engine.sampled_ranks(SC.stratum("sigma2"), seed=1) == ranks
    assert decoded == []
    space = engine.space
    above = StratumCase("above", ("u80", "u10"), ("u11",))
    assert stratum_columns(space, above) == ([space.var_by_name("u10")], [space.var_by_name("u11")])
    assert decoded == ["u80"]
    for name in ("x", "u1O"):
        with pytest.raises(BadPoint, match=f"names {name!r}, which is not a jet coordinate"):
            stratum_columns(space, StratumCase("bad", (), ("u10", name)))
    assert decoded == ["u80", "x", "u1O"]


def _perfbench_scenarios():
    """The benchmark's scenarios module, perfbench/scenarios.py."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_scenarios", Path(__file__).parents[1] / "perfbench" / "scenarios.py"
    )
    scenarios = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scenarios)
    return scenarios


@pytest.mark.parametrize(
    "base, fiber, refused",
    [
        (["x"], ["", "u"], "fiber name ''"),
        (["x"], ["1u"], "fiber name '1u'"),
        (["x"], ["u v"], "fiber name 'u v'"),
        (["x"], ["u", "u-1"], "fiber name 'u-1'"),
        (["1"], ["u"], "base name '1'"),
        (["xy"], ["u"], "base name 'xy'"),
    ],
)
def test_names_no_expression_can_use_are_refused(base, fiber, refused):
    # a fiber name must be a symbol of the expression grammar and a base
    # name a single letter; the ValueError names the one refused
    data = {"id": "names", "base": base, "fiber": fiber, "generators": []}
    with pytest.raises(ValueError, match=f"^{re.escape(refused)} is not of the form"):
        Scenario(data)


def test_fiber_names_with_digits_are_accepted():
    for data in (X_REPARAM, METRIC2D, _perfbench_scenarios().METRIC3D):
        Scenario(data)
    metric = Scenario({"id": "g", "base": ["x", "y"], "fiber": ["g11", "g12", "g22"], "generators": []})
    names = metric.space(9).coordinate_names()
    assert len(set(names)) == len(names)
    Scenario({"id": "u", "base": ["x"], "fiber": ["u", "u_1"], "generators": []})


@pytest.mark.parametrize(
    "name, refused",
    [
        ("u", "free function name 'u' is a fiber coordinate's name"),
        ("x", "free function name 'x' is a base coordinate's name"),
        ("u1", "free function name 'u1' is a jet coordinate's name"),
        ("1f", "free function name '1f' is not of the form"),
    ],
)
def test_free_functions_named_like_coordinates_are_refused(name, refused):
    # the generator's tokens would be read as the free function: with f
    # named u, the scaling u d/du became f d/du and gave h = [1, 0, 0]
    data = {
        "id": "shadow", "base": ["x"], "fiber": ["u"], "free_functions": [name],
        "generators": [{"xi": ["0"], "phi": ["u"]}],
    }
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}"):
        Scenario(data)
    Scenario(dict(data, free_functions=["f"]))


def test_a_repeated_stratum_label_is_refused():
    # the second stratum labelled g silently replaced the first
    data = {
        "id": "twice", "base": ["x"], "fiber": ["u"],
        "generators": [{"xi": ["1"], "phi": ["0"]}],
        "strata": [{"label": "g", "equalities": ["u"]}, {"label": "g"}],
    }
    with pytest.raises(ValueError, match="^scenario 'twice' has two strata labelled 'g'$"):
        Scenario(data)
    Scenario(dict(data, strata=[{"label": "g", "equalities": ["u"]}, {"label": "h"}]))


def test_a_repeated_free_function_name_is_refused():
    # f twice gave two identical parameter blocks, so N_k read 2, 4, 6, 8
    # where it is 1, 2, 3, 4 and the freeness probe compared a wrong N_k
    data = {
        "id": "twice", "base": ["x"], "fiber": ["u"], "free_functions": ["f", "f"],
        "generators": [{"xi": ["f"], "phi": ["0"]}],
    }
    with pytest.raises(ValueError, match="^free function name 'f' is repeated$"):
        Scenario(data)
    once = Scenario(dict(data, free_functions=["f"]))
    assert [once.acting_count(k) for k in range(4)] == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "positivity, name",
    [(["g1l"], "g1l"), (["g11", "g11*g22 - g1l^2"], "g1l"), (["g11*w"], "w")],
)
def test_a_positivity_name_that_is_no_coordinate_is_refused(positivity, name):
    # refused at construction, before an engine is built and the sampler
    # meets the name
    refused = re.escape(f"positivity {positivity[-1]!r} of scenario 'metric2d' names {name!r}")
    with pytest.raises(ValueError, match=f"^{refused}, which is neither"):
        Scenario({**METRIC2D, "positivity": positivity})
    # base names and jets of any order up to 9 are coordinates
    Scenario({**METRIC2D, "positivity": ["g11 + x", "1 + g11_09^2", "g22_20*y + 1"]})


@pytest.mark.parametrize(
    "drop, refused",
    [
        (lambda d: d.pop("id"), "the scenario has no 'id'"),
        (lambda d: d.pop("base"), "scenario 'keys' has no 'base'"),
        (lambda d: d.pop("fiber"), "scenario 'keys' has no 'fiber'"),
        (lambda d: d.pop("generators"), "scenario 'keys' has no 'generators'"),
        (lambda d: d["strata"][1].pop("label"), "stratum 1 of scenario 'keys' has no 'label'"),
        (lambda d: d["generators"][1].pop("phi"), "generator 1 of scenario 'keys' has no 'phi'"),
        (lambda d: d["generators"][0].pop("xi"), "generator 0 of scenario 'keys' has no 'xi'"),
    ],
)
def test_a_missing_required_key_is_refused_by_name(drop, refused):
    # refused at construction, with the key and where it is missing; a
    # missing phi would otherwise surface only in field()
    data = {
        "id": "keys", "base": ["x"], "fiber": ["u"],
        "generators": [{"xi": ["1"], "phi": ["0"]}, {"xi": ["0"], "phi": ["u"]}],
        "strata": [{"label": "g"}, {"label": "zero", "equalities": ["u"]}],
    }
    Scenario(dict(data, lift_order=1))  # a key the scenario does not read is ignored
    drop(data)
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        Scenario(data)


def test_generator_and_positivity_errors_are_raised_by_the_scenario():
    # both are parsed when the Scenario is built, before any engine; a
    # positivity syntax error names its text and the scenario
    refused = "positivity 'g11 +' of scenario 'metric2d': unexpected end of expression"
    with pytest.raises(ExpressionError, match=f"^{re.escape(refused)}$"):
        Scenario({**METRIC2D, "positivity": ["g11 +"]})
    unknown = dict(X_REPARAM, generators=[{"xi": ["f", "w"], "phi": ["0"]}])
    with pytest.raises(ExpressionError, match="unknown symbol 'w' in a generator of scenario"):
        Scenario(unknown)


def test_scenario_errors():
    with pytest.raises(UnknownScenario):
        get_scenario("nope")
    with pytest.raises(UnknownScenario):
        SC.stratum("sigma9")
    with pytest.raises(ValueError):
        StratumCase("bad", equalities=("u10",), inequations=("u10",))
    # the generators are parsed when the Scenario is built, so their
    # errors are raised there
    with pytest.raises(ExpressionError):
        Scenario(
            {
                "id": "bad-symbols",
                "base": ["x"],
                "fiber": ["u"],
                "generators": [{"xi": ["w"], "phi": ["0"]}],
                "strata": [],
            }
        )
    with pytest.raises(ExpressionError, match="zero-divisor"):
        Scenario(
            {
                "id": "zero-divisor",
                "base": ["x"],
                "fiber": ["u"],
                "generators": [{"xi": ["x/0"], "phi": ["0"]}],
                "strata": [],
            }
        )
    with pytest.raises(NonlinearParameters):
        Scenario(
            {
                "id": "nonlinear",
                "base": ["x"],
                "fiber": ["u"],
                "free_functions": ["f"],
                "generators": [{"xi": ["f*f"], "phi": ["0"]}],
                "strata": [],
            }
        )

    def first_xi(text):
        """The plan (forms, monomials, denominator) of the field (text, 0)."""
        generators = [{"xi": [text], "phi": ["0"]}]
        line = Scenario({"id": "divisors", "base": ["x"], "fiber": ["u"], "generators": generators})
        plan, _ = line.instantiate(line.space(2))
        return plan.forms, plan.monomials, plan.denominator

    for text in ("x/u", "x^-1"):
        with pytest.raises(NonlinearParameters):
            first_xi(text)
    # both are x/2: L = 2 and M = 1, and the one parameter, the
    # function-free part, has the true row -u1/2 on u1 (column 2) and -u2
    # on u2 (column 3); times the scale L D = 2 J 2! these are -2 y1 and
    # -4 y2, y = J u, each on a jet monomial of its own
    expected = (((0, (2, 3), (0, 1), (-2, -4), True),), ((2,), (3,)), 2)
    assert first_xi("x*2^-1") == first_xi("x/2") == expected
    positive = Scenario(dict(X_REPARAM, id="positive", positivity=["1/u10"]))
    with pytest.raises(BadSample):
        stratum_codim_sequence(positive, "sigma1", 1, seed=1)
    with pytest.raises(ValueError, match="pointwise"):
        Scenario(
            {
                "id": "pointwise",
                "base": [],
                "fiber": ["u"],
                "free_functions": ["f"],
                "generators": [{"xi": [], "phi": ["f"]}],
                "strata": [],
            }
        )


def test_jet_space_shape():
    space = SC.space(3)
    assert space.dim == 2 + 10
    assert space.coordinate_names()[:6] == ["x", "y", "u", "u10", "u01", "u20"]
    with pytest.raises(BadPoint):
        space.var_by_name("u99")


def test_sample_respects_stratum():
    space = SC.space(3)
    rng = random.Random(0)
    for _ in range(10):
        point = sample_stratum_point(space, SC.stratum("sigma2"), rng)
        value = lambda name: point[space.var_by_name(name)]
        assert value("u10") == 0 and value("u20") == 0
        assert value("u11") != 0
        for v in point.values():
            assert abs(v.numerator) <= 20 * v.denominator or v == 0


def test_sample_value_tables():
    # one entry per pair (n, d), -20 <= n <= 20 and 1 <= d <= 20, so a value
    # p/q in lowest terms appears once per common multiple m with
    # |m p| <= 20 and m q <= 20: one uniform choice draws n and d uniformly
    values, nonzero = jetflow._VALUES, jetflow._NONZERO
    assert len(values) == 41 * 20 == 820 and len(nonzero) == 40 * 20 == 800
    counts = Counter(values)
    assert set(counts) == {Fraction(n, d) for n in range(-20, 21) for d in range(1, 21)}
    for value, count in counts.items():
        assert count == 20 // max(abs(value.numerator), value.denominator), value
    assert Counter(nonzero) == counts - Counter({Fraction(0): 20})


class ChoiceCounter(random.Random):
    """A seeded generator that counts its choice calls and refuses randint."""

    def __init__(self, seed):
        super().__init__(seed)
        self.choices = 0

    def choice(self, seq):
        self.choices += 1
        return super().choice(seq)

    def randint(self, a, b):
        raise AssertionError("the sampler draws with choice only")


def test_sample_one_choice_per_drawn_coordinate_per_try(monkeypatch):
    space = SC.space(3)
    stratum = SC.stratum("sigma2")  # u10 = u20 = 0, u11 != 0
    drawn = space.dim - space.p - 2
    rng = ChoiceCounter(0)
    point = sample_stratum_point(space, stratum, rng)
    assert rng.choices == drawn and list(point) == list(range(space.dim))
    # u01 > 0 rejects about half the draws; every try draws every
    # coordinate again, one choice each
    tries = []
    evaluate = jetflow.evaluate_node
    monkeypatch.setattr(
        jetflow, "evaluate_node", lambda *args: tries.append(1) or evaluate(*args)
    )
    rng = ChoiceCounter(1)
    positivity = [parse_expression("u01")]
    for _ in range(10):
        point = sample_stratum_point(space, stratum, rng, positivity)
        assert point[space.var_by_name("u01")] > 0
    assert len(tries) > 10 and rng.choices == len(tries) * drawn
    # an expression that must evaluate redraws within the same budget:
    # 1/u10 divides by zero at every point of sigma2
    tries.clear()
    rng = ChoiceCounter(2)
    with pytest.raises(BadSample, match=f"after {jetflow._SAMPLE_TRIES} tries"):
        sample_stratum_point(space, stratum, rng, (), [parse_expression("1/u10")])
    assert len(tries) == jetflow._SAMPLE_TRIES and rng.choices == jetflow._SAMPLE_TRIES * drawn


# affine reparametrizations of the line plus fiber scaling
LINE_AFFINE = {
    "id": "line-affine-scale",
    "base": ["x"],
    "fiber": ["u"],
    "generators": [
        {"xi": ["1"], "phi": ["0"]},
        {"xi": ["x"], "phi": ["0"]},
        {"xi": ["0"], "phi": ["u"]},
    ],
    "strata": [{"label": "generic", "equalities": [], "inequations": ["u1", "u"]}],
}


def test_new_scenario_from_dict_without_code_changes():
    # the classic first nontrivial invariant u * u2 / u1^2 appears at order 2
    scenario = Scenario(LINE_AFFINE)
    s, h = stratum_codim_sequence(scenario, "generic", 3, seed=5)
    assert s == [0, 0, 1, 2]
    assert h == [0, 0, 1, 1]
    assert annihilation_check(scenario, "u*u2/u1^2", "generic", seed=5)
    assert not annihilation_check(scenario, "u2", "generic", seed=5)


def test_projection_consistency_all_generators():
    # per generator: each one's rows must project on its own
    for gen_index in range(3):
        single = Scenario(dict(X_REPARAM, generators=[X_REPARAM["generators"][gen_index]]))
        _projected_rows_match(single, 7, 4, seed=50 + gen_index)


def test_projection_consistency_metric_lift():
    _projected_rows_match(get_scenario("metric2d"), 3, 2, seed=60)


def test_rows_match_symbolic_prolongation_oracle():
    # the engine's section evaluation against the textbook recursion, as
    # multisets of nonzero rows at seeded stratum points
    cases = [(SC, label, 6) for label in SC.strata]
    cases += [(get_scenario("metric2d"), "generic", 4), (Scenario(LINE_AFFINE), "generic", 4)]
    for scenario, label, k in cases:
        engine = _StratumEngine(scenario, k)
        rng = random.Random(70 + k)
        point = sample_stratum_point(
            engine.space, scenario.stratum(label), rng, engine.scenario.positivity
        )
        expected = prolonged_rows_oracle(scenario, k, point)
        assert sorted(_engine_rows(engine, point)) == sorted(expected), (scenario.id, label)


# phi of fiber degrees 0 to 3, a fiber-dependent xi and non-integral
# coefficients: the plan's integral form needs every power D^j
RICCATI_MIXED = {
    "id": "riccati-mixed",
    "base": ["x", "y"],
    "fiber": ["u", "v"],
    "free_functions": ["f"],
    "generators": [
        {"xi": ["f", "u^2/3"], "phi": ["f_x*u/2 + f_xx*u^2/3", "v*u - 5*f_y/7"]},
        {"xi": ["0", "1/2"], "phi": ["u^3/2 - v", "3/4"]},
    ],
    "strata": [{"label": "generic", "equalities": [], "inequations": []}],
}
# the diffeomorphisms of 3-space lifted to the six metric coefficients by
# the Lie derivative, phi_ij = -(g_kj d_i xi^k + g_ik d_j xi^k), positivity
# on the leading 1x1 and 2x2 minors: the benchmark's 3D metric scenario
METRIC3D = {
    "id": "metric3d",
    "base": ["x", "y", "z"],
    "fiber": ["g11", "g12", "g13", "g22", "g23", "g33"],
    "free_functions": ["a", "b", "c"],
    "generators": [
        {
            "xi": ["a", "b", "c"],
            "phi": [
                "-(2*g11*a_x + 2*g12*b_x + 2*g13*c_x)",
                "-(g11*a_y + g12*b_y + g13*c_y + g12*a_x + g22*b_x + g23*c_x)",
                "-(g11*a_z + g12*b_z + g13*c_z + g13*a_x + g23*b_x + g33*c_x)",
                "-(2*g12*a_y + 2*g22*b_y + 2*g23*c_y)",
                "-(g12*a_z + g22*b_z + g23*c_z + g13*a_y + g23*b_y + g33*c_y)",
                "-(2*g13*a_z + 2*g23*b_z + 2*g33*c_z)",
            ],
        }
    ],
    "strata": [{"label": "generic", "equalities": [], "inequations": []}],
    "positivity": ["g11", "g11*g22 - g12^2"],
}
# generators of fiber degrees 2 and 0 with coefficient denominators 2 and
# 3: the one scale L D^M of prolong has L = 6 and M = 2 for both
FIBER_DEGREES = {
    "id": "fiber-degrees",
    "base": ["x"],
    "fiber": ["u"],
    "free_functions": ["f"],
    "generators": [{"xi": ["f"], "phi": ["u^2/2"]}, {"xi": ["0"], "phi": ["1/3"]}],
    "strata": [{"label": "generic", "equalities": [], "inequations": []}],
}
# f read to second derivatives in one generator and g to none in another:
# each function is truncated at its own degree
MIXED_ORDERS = {
    "id": "mixed-orders",
    "base": ["x", "y"],
    "fiber": ["u"],
    "free_functions": ["f", "g"],
    "generators": [{"xi": ["0", "0"], "phi": ["f_yy"]}, {"xi": ["g", "0"], "phi": ["0"]}],
    "strata": [{"label": "generic", "equalities": [], "inequations": []}],
}
LOCAL_SCENARIOS = {
    "line-affine": LINE_AFFINE,
    "riccati-mixed": RICCATI_MIXED,
    "metric3d": METRIC3D,
    "fiber-degrees": FIBER_DEGREES,
    "mixed-orders": MIXED_ORDERS,
}

PARITY_CASES = (
    [("x-reparam", label, 5) for label in SC.strata]
    # a and b are read to first derivatives: the sentinel slices of a and b
    # shift by |beta - gamma| = k + 2, past J^k
    + [("metric2d", "generic", k) for k in range(2, 6)]
    + [("line-affine", "generic", 3)]
    + [("distribution3d", label, 0) for label in ("r != 0", "r = 0, s != 0", "r = s = 0")]
    # from k = 1: at k = 0 the oracle's total derivative of a fiber-dependent
    # xi needs the order-1 jets, which J^0 does not have
    + [("riccati-mixed", "generic", k) for k in range(1, 5)]
    # base dimension 3
    + [("metric3d", "generic", k) for k in (1, 2)]
    # generators of different fiber degree M under the one scale
    + [("fiber-degrees", "generic", k) for k in range(4)]
    # free functions truncated at different degrees
    + [("mixed-orders", "generic", k) for k in range(3)]
)


def _scenario(name):
    return Scenario(LOCAL_SCENARIOS[name]) if name in LOCAL_SCENARIOS else get_scenario(name)


@pytest.mark.parametrize("name, label, k", PARITY_CASES)
def test_prolong_parity_with_oracle(name, label, k):
    # prolong's integer rows over its one scale equal the symbolic
    # prolongation exactly at a seeded stratum point
    scenario = _scenario(name)
    engine = _StratumEngine(scenario, k)
    seed = 1000 + PARITY_CASES.index((name, label, k))
    point = sample_stratum_point(
        engine.space, scenario.stratum(label), random.Random(seed), engine.scenario.positivity
    )
    expected = prolonged_rows_oracle(scenario, k, point)
    assert sorted(_engine_rows(engine, point)) == sorted(expected)


@pytest.mark.parametrize("name, k", [("metric2d", 4), ("riccati-mixed", 3), ("x-reparam", 4)])
def test_prolong_does_no_fraction_arithmetic(name, k, monkeypatch):
    # the point is drawn first; prolong itself reads its numerators and
    # denominators and computes on ints only
    scenario = _scenario(name)
    engine = _StratumEngine(scenario, k)
    point = sample_stratum_point(
        engine.space, scenario.stratum(next(iter(scenario.strata))), random.Random(k)
    )

    def refuse(*args):
        raise AssertionError("Fraction arithmetic inside prolong")

    for op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
        monkeypatch.setattr(Fraction, f"__{op}__", refuse)
        monkeypatch.setattr(Fraction, f"__r{op}__", refuse)
    scale, rows = prolong(engine.plan, point)
    assert isinstance(scale, int) and rows


@pytest.mark.parametrize("name, k", [("metric2d", 4), ("riccati-mixed", 3), ("x-reparam", 4)])
def test_prolong_does_no_poly_arithmetic(name, k, monkeypatch):
    # the engine's plan holds the row forms: prolong evaluates them at the
    # point and adds, subtracts or multiplies no polynomial; Poly has no
    # substitution, truncated product or derivative left to call
    assert not any(hasattr(Poly, op) for op in ("substitute", "truncated_mul", "diff"))
    scenario = _scenario(name)
    engine = _StratumEngine(scenario, k)
    point = sample_stratum_point(
        engine.space, scenario.stratum(next(iter(scenario.strata))), random.Random(k)
    )
    expected = prolonged_rows_oracle(scenario, k, point)

    def refuse(*args):
        raise AssertionError("Poly arithmetic inside prolong")

    for op in ("__add__", "__sub__", "__mul__"):
        monkeypatch.setattr(Poly, op, refuse)
    scale, rows = prolong(engine.plan, point)
    monkeypatch.undo()
    exact = [{col: Fraction(c, scale) for col, c in row.items()} for row in rows.values()]
    assert sorted(_dense(row, engine.space.dim) for row in exact) == sorted(expected)


@pytest.mark.parametrize("name, k", [("metric2d", 4), ("riccati-mixed", 3), ("x-reparam", 4)])
def test_plan_build_does_no_substitution(name, k):
    # the plan expands each generator term into its row-form entries: the
    # build substitutes and differentiates no polynomial, and Poly has no
    # substitution, truncated product or derivative to do it with (the
    # generator parse still adds, multiplies and divides Polys); the oracle
    # substitution_plan keeps its own copies of them
    for op in ("substitute", "truncated_mul", "diff"):
        assert not hasattr(Poly, op), op
    engine = _StratumEngine(_scenario(name), k)
    assert engine.plan.forms


#: Every local scenario and the three built-in ones at orders 0..3, and the
#: two plane scenarios at the top order.
SUBSTITUTION_CASES = [
    (name, k)
    for name in (*LOCAL_SCENARIOS, "x-reparam", "metric2d", "distribution3d")
    for k in range(4)
] + [("metric2d", 9), ("x-reparam", 9)]


@pytest.mark.parametrize("name, k", SUBSTITUTION_CASES)
def test_plan_equals_the_substitution_build(name, k, monkeypatch):
    # the direct term expansion gives the plan the truncated substitution
    # of the Taylor section gave, term order included
    built = []

    class Recording(ProlongPlan):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(jetflow, "ProlongPlan", Recording)
    scenario = _scenario(name)
    plan, _ = scenario.instantiate(scenario.space(k))
    (args,) = built
    got = (plan.denominator, plan.degree, plan.monomials, plan.forms)
    assert got == substitution_plan(*args)


#: Two orders of every local scenario and of the three built-in ones:
#: k = 1, 2, where a degree-1 form has jets of two orders to read, but
#: metric3d at k = 0, 1, whose oracle takes seconds at k = 2 (riccati-mixed
#: starts at k = 1, as in PARITY_CASES).
FORM_CASES = [
    (name, k)
    for name in (*LOCAL_SCENARIOS, "x-reparam", "metric2d", "distribution3d")
    for k in ((0, 1) if name == "metric3d" else (1, 2))
]


@pytest.mark.parametrize("name, k", FORM_CASES)
def test_prolong_parity_where_the_forms_show(name, k):
    # at the all-zero jet only the D^M terms of the forms are left, and a
    # one-hot jet (one coordinate 1, the others 0) adds the coefficients of
    # that coordinate in the degree-1 forms
    scenario = _scenario(name)
    engine = _StratumEngine(scenario, k)
    fields = prolonged_fields_oracle(scenario, k)
    space = engine.space
    zero = dict.fromkeys(range(space.dim), Fraction(0))
    points = [zero] + [zero | {var: Fraction(1)} for var in range(space.p, space.dim)]
    for point in points:
        expected = rows_at(fields, point)
        assert sorted(_engine_rows(engine, point)) == sorted(expected), point


def test_metric3d_order_three_matches_catalog():
    h = stratum_codim_sequence(Scenario(METRIC3D), "generic", 3, seed=9)[1]
    assert h == hilbert_spec("riemannian", n=3).values(3)


def test_metric3d_point_past_sixty_draws_is_sampled():
    # the positivity g11 > 0, g11 g22 > g12^2 accepts about 12 % of the
    # draws; at this seed the first J^3 point takes 65 draws, past a budget
    # of 60 draws (a 4.5e-4 chance per point) but well within _SAMPLE_TRIES.
    # The order-3 engine draws it: stratum_codim_sequence probes at order 2
    assert jetflow._SAMPLE_TRIES >= 65
    h = _StratumEngine(Scenario(METRIC3D), 3).codim_sequence("generic", seed=436609)[1]
    assert h == [0, 0, 3, 15] == hilbert_spec("riemannian", n=3).values(3)


#: Points one codim_sequence draws: one where the first point reaches the
#: bound min(M_k, d_k) at every order, three on metric2d, whose order 2
#: stays below it (19 against 20, the so(2) isotropy).
POINTS_PER_SEQUENCE = {"x-reparam": 1, "riccati-mixed": 1, "metric3d": 1, "metric2d": 3}


@pytest.mark.parametrize(
    "name, k", [("x-reparam", 4), ("riccati-mixed", 3), ("metric3d", 2), ("metric2d", 3)]
)
def test_one_plan_per_engine(name, k, monkeypatch):
    # the generators are instantiated and planned once per engine, however
    # many points that engine samples
    instantiations, builds, points = [], [], []
    instantiate = Scenario.instantiate
    build = ProlongPlan.__init__
    sample = jetflow.sample_stratum_point

    def counted_instantiate(self, space):
        instantiations.append(space)
        return instantiate(self, space)

    def counted_build(self, *args):
        builds.append(self)
        build(self, *args)

    def counted_sample(*args):
        points.append(sample(*args))
        return points[-1]

    monkeypatch.setattr(Scenario, "instantiate", counted_instantiate)
    monkeypatch.setattr(ProlongPlan, "__init__", counted_build)
    monkeypatch.setattr(jetflow, "sample_stratum_point", counted_sample)
    scenario = _scenario(name)
    engine = _StratumEngine(scenario, k)
    engine.codim_sequence(next(iter(scenario.strata)), seed=k)
    assert len(points) == POINTS_PER_SEQUENCE[name]
    assert len(instantiations) == 1 and builds == [engine.plan]
    assert len(engine.plan.specs) == len(engine.params)
    # prolong hands its rows in parameter order
    rows = prolong(engine.plan, points[-1])[1]
    assert list(rows) == sorted(rows)
    assert len(instantiations) == 1 and builds == [engine.plan]


def test_fixed_generators_are_parameters():
    # a generator's nonzero function-free part is one parameter, read off
    # its own marker token, before that generator's function slices
    names = lambda params: [info.name for info in params if not info.name.startswith("f[")]
    plan, params = SC.instantiate(SC.space(2))
    assert names(params) == ["fixed[1]", "fixed[2]"]  # f d/dx has no fixed part
    assert params[-2:] == [ParamInfo("fixed[1]", False), ParamInfo("fixed[2]", False)]
    markers = [spec[0][0] for spec in plan.specs[-2:]]
    assert plan.specs[-2:] == (((markers[0], 1, (0, 0)),), ((markers[1], 1, (0, 0)),))
    assert len(set(markers)) == 2 and min(markers) > max(
        var for spec in plan.specs[:-2] for var, _, _ in spec
    )
    riccati = Scenario(RICCATI_MIXED)
    _, params = riccati.instantiate(riccati.space(1))
    assert names(params) == ["fixed[0]", "fixed[1]"]
    assert params[0].name == "fixed[0]" and params[-1].name == "fixed[1]"
    # one scale L D^M over all generators: L = lcm(2, 3), M = deg_u(u^2)
    degrees = Scenario(FIBER_DEGREES)
    plan, _ = degrees.instantiate(degrees.space(2))
    assert (plan.denominator, plan.degree) == (6, 2)


def test_non_invariant_stratum_fails_tangency():
    # u01 = 0 is not preserved by the action: the tangency assertion fires
    bogus = StratumCase("bogus", equalities=("u01",), inequations=("u10",))
    with pytest.raises(InvariantViolation, match="not tangent"):
        stratum_codim_sequence(SC, bogus, 2, seed=4)


def _sampled_verdict(plan, params, stratum, points):
    """The engine's self-checks as they were once made at each sampled
    point, in point order: a sentinel parameter with a nonzero row, then a
    row entry on a vanishing column of the stratum, the first such column
    in the stratum's order; None when no point shows either."""
    zeros, _ = stratum_columns(plan.space, stratum)
    for point in points:
        rows = prolong(plan, point)[1]
        if any(params[slot].sentinel for slot in rows):
            return "sentinel"
        for col in zeros:
            if any(col in row for row in rows.values()):
                return f"not tangent at {plan.space.name_of(col)!r}"
    return None


def _form_verdict(engine_or_error, stratum):
    """The verdict read off the plan: the engine build's sentinel check,
    then its tangency check on the stratum."""
    if isinstance(engine_or_error, InvariantViolation):
        assert "sentinel" in str(engine_or_error)
        return "sentinel"
    try:
        engine_or_error.acting_counts(stratum)
    except InvariantViolation as exc:
        found = re.fullmatch(rf"generator not tangent to stratum {re.escape(repr(stratum.label))} "
                             r"at coordinate ('.*')", str(exc))
        assert found, str(exc)
        return f"not tangent at {found[1]}"
    return None


@pytest.mark.parametrize("name", sorted(set(BUILTIN_SCENARIOS) | {n for n, _, _ in PARITY_CASES}))
@pytest.mark.parametrize("lower", [0, 1])
def test_self_checks_read_off_the_forms_agree_with_sampled_points(name, lower, monkeypatch):
    # the exact verdicts off the plan's forms equal the per-point rule at
    # three seeded points.  The sentinel check holds whatever the stratum,
    # so it is compared at points of the whole jet space; with the
    # truncation one degree too low the sentinels act.  The tangency check
    # is compared on the scenario's strata and on one stratum per jet
    # coordinate of order <= 1 set to zero, many of them not tangent.
    # Points ignore positivity: the forms are polynomial identities, and a
    # condition no point of the stratum meets would leave none to compare.
    if lower:
        orders = jetflow._derivative_orders
        monkeypatch.setattr(jetflow, "_derivative_orders",
                            lambda tokens: {f: r - 1 for f, r in orders(tokens).items()})
    scenario = _scenario(name)
    seen = set()
    for k in range(5):
        space = scenario.space(k)
        plan, params = scenario.instantiate(space)
        try:
            engine = _StratumEngine(scenario, k)
        except InvariantViolation as exc:
            engine = exc
        strata = [StratumCase("whole")]
        if not isinstance(engine, InvariantViolation):
            jets = jet_columns(space)
            strata += list(scenario.strata.values()) + [
                StratumCase(f"{coordinate} = 0", equalities=(coordinate,))
                for var, coordinate in enumerate(space.coordinate_names())
                if var < space.cols_at[min(k, 1)] and var in jets
            ]
        rng = random.Random(k)
        for stratum in strata:
            points = [sample_stratum_point(space, stratum, rng) for _ in range(3)]
            verdict = _form_verdict(engine, stratum)
            assert verdict == _sampled_verdict(plan, params, stratum, points), (k, stratum)
            seen.add(verdict and verdict.split()[0])
    if lower and scenario.free_functions:
        assert seen == {"sentinel"}  # at every order
    else:
        assert None in seen and "sentinel" not in seen, seen


def test_tangency_is_decided_before_any_point_is_drawn(monkeypatch):
    def drawn(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(jetflow, "sample_stratum_point", drawn)
    bogus = StratumCase("bogus", equalities=("u01",), inequations=("u10",))
    with pytest.raises(InvariantViolation, match="not tangent to stratum 'bogus' at coordinate 'u01'"):
        stratum_codim_sequence(SC, bogus, 2, seed=4)


def test_one_tangency_check_per_codim_sequence(monkeypatch):
    # however many points a sequence draws, its stratum is checked once:
    # sigma2 is settled by its first point, metric2d draws three points
    # (order 2 is not settled), and when the ranks disagree the retry
    # round draws three more, six in all
    checks, points = [], []
    check, sample = _StratumEngine.acting_counts, jetflow.sample_stratum_point
    monkeypatch.setattr(_StratumEngine, "acting_counts",
                        lambda self, stratum: checks.append(stratum) or check(self, stratum))
    monkeypatch.setattr(jetflow, "sample_stratum_point",
                        lambda *args: points.append(1) or sample(*args))
    engine = _StratumEngine(SC, 4)
    engine.codim_sequence("sigma2", seed=3)
    assert (len(checks), len(points)) == (1, 1)
    for k in (2, 4):
        checks.clear()
        points.clear()
        _StratumEngine(get_scenario("metric2d"), k).codim_sequence("generic", seed=3)
        assert (len(checks), len(points)) == (1, 3)
    checks.clear()
    points.clear()
    # every rank the count of points drawn so far: no order is settled
    # and no two points agree
    monkeypatch.setattr(jetflow, "rank_profile", lambda rows, cuts: [len(points)] * len(cuts))
    evidence = r"for stratum 'sigma2': \[4, 4, 4, 4, 4\] vs \[5, 5, 5, 5, 5\]; bound \[3, 3, 5, 8, 12\]$"
    with pytest.raises(jetflow.GenericityFailure, match=evidence):
        engine.codim_sequence("sigma2", seed=3)
    assert (len(checks), len(points)) == (1, 6)


def test_non_tangent_stratum_with_unmet_positivity_is_a_violation():
    # no point meets -1 - u^2 > 0: a tangent stratum ends in BadSample, and
    # a stratum the generators leave is reported before any draw
    never = Scenario(dict(X_REPARAM, id="never", positivity=["-1 - u^2"]))
    with pytest.raises(BadSample):
        stratum_codim_sequence(never, "sigma1", 2, seed=4)
    bogus = StratumCase("bogus", equalities=("u01",), inequations=("u10",))
    with pytest.raises(InvariantViolation, match="not tangent"):
        stratum_codim_sequence(never, bogus, 2, seed=4)


def test_metric2d_seed_independent():
    results = {tuple(metric2d_h(3, seed=s)) for s in (5, 6, 7)}
    assert results == {(0, 0, 1, 1)}


# -- the acting counts and the one-point certificate ---------------------------


@pytest.mark.parametrize("name, k", [("metric2d", 6), ("metric3d", 3), ("x-reparam", 7)])
def test_acting_counts_on_the_whole_space_are_the_closed_form(name, k):
    # with nothing vanishing, every parameter that acts on J^k keeps a term
    # there: M_k is the closed form N_k read off the generator texts
    scenario = _scenario(name)
    counts = _StratumEngine(scenario, k).acting_counts(StratumCase("whole"))
    assert counts == [acting_parameter_count(scenario, j) for j in range(k + 1)]


def test_acting_counts_on_the_x_reparam_strata_are_shifted_closed_forms():
    # on sigma_j the parameters acting up to order k are those acting on
    # the whole space up to order k - s_j: M_k(sigma_j) = N_max(k - s_j, 0)
    n = [acting_parameter_count(SC, k) for k in range(8)]
    engine = _StratumEngine(SC, 7)
    for label, shift in zip(SC.strata, (0, 1, 1, 2, 2, 2, 3)):
        counts = engine.acting_counts(SC.stratum(label))
        assert counts == [n[max(k - shift, 0)] for k in range(8)], label


#: Every built-in and local scenario, at an order its engine builds quickly.
BOUND_ORDERS = {
    "x-reparam": 5, "metric2d": 4, "distribution3d": 0, "line-affine": 3,
    "riccati-mixed": 3, "metric3d": 2, "fiber-degrees": 3, "mixed-orders": 3,
}
BOUND_CASES = [(name, label) for name in BOUND_ORDERS for label in _scenario(name).strata]


@functools.cache
def _bound_engine(name):
    return _StratumEngine(_scenario(name), BOUND_ORDERS[name])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(BOUND_CASES), st.booleans(), st.data())
def test_no_point_ranks_above_the_bound(case, degenerate, data):
    # at a seeded rational point of the stratum, and at a degenerate
    # integer point (jets drawn from -1..1, the vanishing ones 0, the open
    # conditions ignored), the rank at every order is at most min(M_k, d_k)
    name, label = case
    engine = _bound_engine(name)
    stratum = engine.scenario.stratum(label)
    space = engine.space
    if degenerate:
        zeros, _ = stratum_columns(space, stratum)
        jets = data.draw(st.lists(st.integers(-1, 1), min_size=space.dim, max_size=space.dim))
        point = {
            var: Fraction(0 if var < space.p or var in zeros else jet)
            for var, jet in enumerate(jets)
        }
    else:
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        point = sample_stratum_point(space, stratum, rng, engine.scenario.positivity)
    bound = list(map(min, engine.acting_counts(stratum), engine._dims(stratum)))
    ranks = rank_profile(prolong(engine.plan, point)[1].values(), engine.cols_at)
    assert all(rank <= most for rank, most in zip(ranks, bound)), (ranks, bound)


def test_a_degenerate_first_point_falls_back_to_the_three_point_round(monkeypatch):
    # the first point drawn is made the all-zero jet, which leaves orders
    # below the bound: its round draws three points and disagrees, and the
    # retry round still gives the generic profile, settled by its first
    # point on sigma2 and agreed by three on metric2d
    sample, points = jetflow.sample_stratum_point, []

    def zero_first(*args):
        point = sample(*args)
        points.append(point if points else dict.fromkeys(point, Fraction(0)))
        return points[-1]

    monkeypatch.setattr(jetflow, "sample_stratum_point", zero_first)
    for name, label, k, generic, drawn in [
        ("x-reparam", "sigma2", 4, [3, 3, 5, 8, 12], 4),
        ("metric2d", "generic", 3, [5, 11, 19, 30], 6),
    ]:
        points.clear()
        engine = _StratumEngine(_scenario(name), k)
        assert engine.sampled_ranks(engine.scenario.stratum(label), seed=5) == generic
        assert len(points) == drawn


def test_sampled_ranks_draw_the_three_point_rounds_points(monkeypatch):
    # metric2d leaves order 2 open, so every round draws the three points
    # the three-point rounds draw; an x-reparam stratum is settled by the
    # first of them.  Both give the profile the three-point rounds give.
    sample, drawn = jetflow.sample_stratum_point, []
    monkeypatch.setattr(jetflow, "sample_stratum_point",
                        lambda *args: drawn.append(sample(*args)) or drawn[-1])
    for engine, label, seeds, first in [
        (_StratumEngine(get_scenario("metric2d"), 3), "generic", range(1, 31), 3),
        *[(_StratumEngine(SC, 5), label, range(1, 4), 1) for label in SC.strata],
    ]:
        stratum = engine.scenario.stratum(label)
        for seed in seeds:
            drawn.clear()
            ranks = engine.sampled_ranks(stratum, seed)
            ours = drawn[:]
            drawn.clear()
            assert ranks == three_point_ranks(engine, stratum, seed), (label, seed)
            assert len(ours) in (first, 6) and ours == drawn[: len(ours)], (label, seed)


# -- the freeness certificate at one probe order -------------------------------


#: k*, the first order k >= 1 with N_k < d_k, of each scenario that has one;
#: riccati-mixed is not free at order 4, so its probe fails
PROBE_ORDERS = {"metric2d": 3, "metric3d": 2, "line-affine": 2, "riccati-mixed": 4,
                "distribution3d": 1}

CERTIFY_CASES = (
    [("metric2d", k) for k in range(10)]
    + [("metric3d", k) for k in range(1, 5)]
    + [(name, k) for name in ("line-affine", "fyy", "mixed-orders", "riccati-mixed",
                              "fiber-degrees", "distribution3d", "x-reparam") for k in range(6)]
)


def _built_orders(monkeypatch) -> list:
    """The order of every engine instantiated from here on, in order."""
    built, instantiate = [], Scenario.instantiate
    monkeypatch.setattr(Scenario, "instantiate", lambda self, space: (
        built.append(space.order) or instantiate(self, space)))
    return built


@pytest.mark.parametrize("name, k_max", CERTIFY_CASES)
def test_certified_sequence_equals_the_order_k_engine(name, k_max, monkeypatch):
    # on every open stratum, at several seeds, the sequence read off the
    # probe engine and the closed form equals the one the order-k_max
    # engine ranks; the probe engine is the only one built where it
    # certifies, and a failed probe is followed by the order-k_max engine
    scenario = Scenario(FYY) if name == "fyy" else _scenario(name)
    built = _built_orders(monkeypatch)
    probe = PROBE_ORDERS.get(name, k_max)
    expected_builds = (
        [k_max] if probe >= k_max else [probe, k_max] if name == "riccati-mixed" else [probe]
    )
    for label, stratum in scenario.strata.items():
        if stratum.equalities:
            continue
        for seed in (1, 2, 3):
            built.clear()
            got = stratum_codim_sequence(scenario, label, k_max, seed)
            assert built == expected_builds, (label, seed)
            assert got == _StratumEngine(scenario, k_max).codim_sequence(label, seed), (label, seed)


@pytest.mark.parametrize("name, k_max", [("metric2d", 7), ("metric3d", 4)])
def test_freeness_persists_above_the_probe_point(name, k_max, monkeypatch):
    # the probe's certifying point, a J^k* point, with its higher jets all
    # zero or drawn at random, has rank N_k at every order k >= k* on the
    # order-k_max engine
    scenario, probe = _scenario(name), PROBE_ORDERS[name]
    sample, drawn = jetflow.sample_stratum_point, []
    monkeypatch.setattr(jetflow, "sample_stratum_point",
                        lambda *args: drawn.append(sample(*args)) or drawn[-1])
    stratum_codim_sequence(scenario, "generic", k_max, seed=5)
    engine = _StratumEngine(scenario, k_max)
    point, higher = drawn[0], range(engine.cols_at[probe], engine.space.dim)
    assert list(point) == list(range(engine.cols_at[probe]))
    n = [acting_parameter_count(scenario, k) for k in range(k_max + 1)]
    rng = random.Random(k_max)
    lifts = [dict.fromkeys(higher, Fraction(0))] + [
        {var: rng.choice(jetflow._VALUES) for var in higher} for _ in range(3)
    ]
    for lift in lifts:
        ranks = rank_profile(prolong(engine.plan, point | lift)[1].values(), engine.cols_at)
        assert ranks[probe:] == n[probe:]


@pytest.mark.parametrize("name, k_max", [("metric2d", 6), ("metric3d", 3), ("line-affine", 4)])
def test_a_failed_probe_runs_the_order_k_engine_draw_for_draw(name, k_max, monkeypatch):
    # the probe's rank, the first one taken, made to miss N_k* by one: the
    # order-k_max engine then runs from the same seed, drawing and ranking
    # what it draws without the probe, with one more engine built
    scenario = _scenario(name)
    sample, rank = jetflow.sample_stratum_point, jetflow.rank_profile
    drawn, ranked = [], []

    def missed(rows, cuts):
        ranked.append(rank(rows, cuts))
        return ranked[-1][:-1] + [ranked[-1][-1] - 1] if len(ranked) == 1 else ranked[-1]

    monkeypatch.setattr(jetflow, "sample_stratum_point",
                        lambda *args: drawn.append(sample(*args)) or drawn[-1])
    monkeypatch.setattr(jetflow, "rank_profile", missed)
    built = _built_orders(monkeypatch)
    got = stratum_codim_sequence(scenario, "generic", k_max, seed=4)
    assert built == [PROBE_ORDERS[name], k_max]
    assert ranked[0][-1] == acting_parameter_count(scenario, PROBE_ORDERS[name])
    after, rank_after = drawn[1:], ranked[1:]
    monkeypatch.setattr(jetflow, "rank_profile", lambda rows, cuts: ranked.append(rank(rows, cuts))
                        or ranked[-1])
    for seen in (drawn, ranked, built):
        seen.clear()
    assert _StratumEngine(scenario, k_max).codim_sequence("generic", seed=4) == got
    assert drawn == after and ranked == rank_after and built == [k_max]


def test_one_engine_per_sequence(monkeypatch):
    # one engine when the probe certifies, at k*; the order-k_max engine
    # alone for every stratum with equalities, also where a probe order
    # exists (distribution3d, k* = 1)
    built = _built_orders(monkeypatch)
    for scenario, label, k_max, engines in [
        (get_scenario("metric2d"), "generic", 6, [3]),
        (Scenario(METRIC3D), "generic", 3, [2]),
        *[(SC, f"sigma{j}", 7, [7]) for j in range(1, 7)],
        (get_scenario("distribution3d"), "r != 0", 3, [1]),
        (get_scenario("distribution3d"), "r = 0, s != 0", 3, [3]),
        (get_scenario("distribution3d"), "r = s = 0", 3, [3]),
    ]:
        built.clear()
        stratum_codim_sequence(scenario, label, k_max, seed=2)
        assert built == engines, (scenario.id, label)


def test_engines_and_sequences_parse_nothing(monkeypatch):
    # a Scenario parses its generators and positivity once, when it is
    # built: engines at several orders, a probe that misses (riccati-mixed
    # at K = 5 builds the order-4 probe engine and then the order-5 one) and
    # every x-reparam stratum's sequence read that one parse
    metric2d, riccati, x_reparam = map(_scenario, ("metric2d", "riccati-mixed", "x-reparam"))
    parse = jetflow.parse_expression
    calls = []
    monkeypatch.setattr(jetflow, "parse_expression", lambda text: calls.append(text) or parse(text))
    built = _built_orders(monkeypatch)
    for k in range(4):
        _StratumEngine(metric2d, k)
    stratum_codim_sequence(metric2d, "generic", 5, seed=1)
    built.clear()
    stratum_codim_sequence(riccati, "generic", 5, seed=1)
    assert built == [4, 5]
    engine = _StratumEngine(x_reparam, 4)
    for label in x_reparam.strata:
        engine.codim_sequence(label, seed=1)
        stratum_codim_sequence(x_reparam, label, 4, seed=1)
    assert calls == []
    Scenario(METRIC2D)  # the counter counts: 5 generator and 2 positivity texts
    assert len(calls) == 7


def test_the_probe_order_is_no_lower_than_the_positivity_reads(monkeypatch):
    # a positivity condition on u3 holds the probe at order 3, where the
    # engine can evaluate it, though N_2 < d_2 already
    built = _built_orders(monkeypatch)
    expected = stratum_codim_sequence(Scenario(LINE_AFFINE), "generic", 5, seed=5)
    assert built == [2]
    built.clear()
    scenario = Scenario(dict(LINE_AFFINE, positivity=["u3"]))
    assert stratum_codim_sequence(scenario, "generic", 5, seed=5) == expected
    assert built == [3]
