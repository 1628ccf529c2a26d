import io
import math

import pytest

from poincount import catalog
from poincount.algebra import UnsupportedArgument
from poincount.cli import run
from poincount.counting import (
    CountingPlan,
    InconsistentPlan,
    SHIPPED_PLANS,
    UnknownSymbol,
    assemble_hilbert,
    dim_delta,
    dim_sym,
    shipped_plan,
)

from oracles import count_monomials


def test_dim_sym_examples():
    assert dim_sym(3, 2) == 6
    assert dim_sym(2, 5) == count_monomials(2, 5) == 6
    for n in range(1, 7):
        assert dim_sym(n, 0) == 1
    assert dim_sym(4, -1) == 0  # binomial convention


def test_dim_sym_enumeration_oracle():
    for n in range(1, 5):
        for k in range(0, 7):
            assert dim_sym(n, k) == count_monomials(n, k)


def test_dim_delta_examples():
    assert dim_delta(2, 3) == 8
    assert dim_delta(3, 1) == 9
    for n in range(1, 8):
        assert dim_delta(n, 0) == n


def test_delta_is_diff_group_fiber():
    # the order-k jet group has dimension n C(n+k, k), counting the order-0 block
    for n in range(1, 7):
        for k in range(2, 9):
            assert dim_delta(n, k) == n * math.comb(n + k, k) - n * math.comb(n + k - 1, k - 1)


def test_assemble_rejects_negative_rows():
    plan = CountingPlan(base_dim=2, order=1, symbol_dim=lambda k: 0)
    with pytest.raises(InconsistentPlan):
        assemble_hilbert(plan, 6)


def test_linear_connections_override_values():
    # the order-0 override is the mechanistic n^3 - n^2 - n*C(n+1,2)
    assert shipped_plan("linear-connections", 3).row(0) == 0
    assert shipped_plan("linear-connections", 4).row(0) == 8


def test_fedosov_small_dimension_values():
    spec = assemble_hilbert(shipped_plan("fedosov", 1))
    assert spec.values(2)[2] == 5
    for k in range(3, 20):
        assert spec.values(k)[k] == 3 * k


def test_einstein_lorentzian_values():
    spec = assemble_hilbert(shipped_plan("einstein", 4))
    assert [spec.values(k)[k] for k in (2, 3, 4)] == [5, 24, 42]


@pytest.mark.parametrize("structure_id", sorted(SHIPPED_PLANS))
def test_plans_rederive_catalog(structure_id):
    builder, valid_range = SHIPPED_PLANS[structure_id]
    for n in valid_range:
        derived = assemble_hilbert(builder(n), 48)
        target = catalog.hilbert_spec(structure_id, n=n)
        assert derived.values(40) == target.values(40), (structure_id, n)


def test_finite_type_stabilizers_vanish_eventually():
    for structure_id, (builder, valid_range) in SHIPPED_PLANS.items():
        if structure_id == "almost-complex":
            continue
        for n in valid_range:
            plan = builder(n)
            tail = [plan.stabilizer_dim(k) for k in range(3, 30)]
            assert all(v == 0 for v in tail), (structure_id, n)
            head = [plan.stabilizer_dim(k) for k in range(0, 3)]
            assert all(a >= b for a, b in zip(head, head[1:] + tail[:1]))


def test_almost_complex_stabilizer_growth_stabilizes():
    # infinite-type: stabilizer dims grow, with eventually constant increments
    # matching the complex prolongation profile
    for n in range(2, 6):
        plan = shipped_plan("almost-complex", n)
        dims = [plan.stabilizer_dim(k) for k in range(0, 25)]
        assert all(b > a for a, b in zip(dims, dims[1:]))
        for k in range(4, 24):
            expected = 2 * n * (math.comb(n + k + 1, k + 2) - math.comb(n + k, k + 1))
            assert dims[k + 1] - dims[k] == expected


def test_shipped_plan_unknown_id():
    with pytest.raises(UnknownSymbol):
        shipped_plan("riemannian", 3)


@pytest.mark.parametrize("structure_id", sorted(SHIPPED_PLANS))
def test_plans_refuse_n_below_their_range(structure_id):
    least = SHIPPED_PLANS[structure_id][1].start
    with pytest.raises(UnsupportedArgument):
        shipped_plan(structure_id, least - 1)
    out, err = io.StringIO(), io.StringIO()
    code = run(["rederive", "--id", structure_id, "--n", str(least - 1)], stdout=out, stderr=err)
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"poincount: error: the {structure_id} plan needs n >= {least}\n"


def test_einstein_weyl_closed_form_matches_mechanistic_row():
    # catalog h_2 closed form vs the plan's generic row, through n = 12
    for n in range(4, 13):
        plan = shipped_plan("einstein-weyl", n)
        closed = catalog.hilbert_spec("einstein-weyl", n=n).values(2)[2]
        assert plan.row(2) == closed
    # and the delta-corrected n = 3 override
    assert shipped_plan("einstein-weyl", 3).row(2) == catalog.hilbert_spec(
        "einstein-weyl", n=3
    ).values(2)[2]
