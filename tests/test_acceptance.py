"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every comparison is exact (tolerance zero): all arithmetic is in
rationals.  Criterion 5 carries one documented finding: the tabulated
reference row for the fifth singular stratum is internally inconsistent
with its own prolongation formula; the faithful assertion is kept as a
strict xfail and the engine's value is pinned against an independent
closed-form oracle instead.
"""

import io
import json
import random
import time
from fractions import Fraction

import pytest

from poincount import catalog
from poincount.algebra import Polynomial, RationalFunction
from poincount.analysis import analyze
from poincount.cli import run
from poincount.counting import SHIPPED_PLANS, assemble_hilbert
from poincount.exprs import parse_rational_function
from poincount.hilbert import gf_from_hilbert, spec_from_gf
from poincount.jetflow import (
    annihilation_check,
    get_scenario,
    lie_example_table,
    stratum_codim_sequence,
)

from oracles import tail_values, xreparam_stratum_oracle

P = Polynomial
RF = RationalFunction


def _announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE CRITERION {number}: PASS - {text}")


def test_criterion_1_catalog_consistency():
    start = time.perf_counter()
    reports = catalog.verify_all(50, 8)
    elapsed = time.perf_counter() - start
    findings = [r for r in reports if r.status == "mismatch"]
    assert findings == [], [
        (r.entry_id, r.params, r.detail) for r in findings
    ]
    matches = sum(r.status == "match" for r in reports)
    assert matches >= 100  # every parameterized h-data entry up to n = 8
    assert elapsed < 60.0, f"verification took {elapsed:.1f}s"
    _announce(
        1,
        f"gf_from_hilbert == claimed P and series match to k=50 for "
        f"{matches} entry/parameter points in {elapsed:.1f}s, no findings",
    )


def test_criterion_2_almost_complex_table():
    expected = {
        2: [0, 0, 2, 24, 60, 116, 196],
        3: [0, 2, 64, 282, 792, 1806, 3612],
        4: [0, 16, 272, 1320, 4392, 11840, 27744],
    }
    for n, row in expected.items():
        out = io.StringIO()
        code = run(
            ["--format", "json", "show", "almost-complex", "--n", str(n), "--kmax", "6"],
            stdout=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue())
        h_row = [r[1] for r in payload["tables"][0]["rows"]]
        assert h_row == row, f"n={n}"
    _announce(2, "the 3x7 almost-complex table reproduces exactly via `show`")


def test_criterion_3_rederivation():
    for structure_id, (builder, valid_range) in sorted(SHIPPED_PLANS.items()):
        for n in valid_range:
            derived = assemble_hilbert(builder(n), 48)
            target = catalog.hilbert_spec(structure_id, n=n)
            assert derived.values(40) == target.values(40), (structure_id, n)
    fedosov = assemble_hilbert(SHIPPED_PLANS["fedosov"][0](1))
    assert fedosov.values(2)[2] == 5
    assert all(fedosov.values(k)[k] == 3 * k for k in range(3, 30))
    einstein = assemble_hilbert(SHIPPED_PLANS["einstein"][0](4))
    assert [einstein.values(k)[k] for k in (2, 3, 4)] == [5, 24, 42]
    _announce(
        3,
        "all nine counting plans reproduce the catalog sequences for k <= 40 "
        "over their validity grids (n <= 6)",
    )


def test_criterion_4_pole_structure():
    for entry in catalog.list_entries():
        if entry.id in ("hamiltonian-critical", "poincare-dulac"):
            continue
        for sample in entry.samples(8):
            report = analyze(entry.claimed_p(**sample))
            assert report.conforms_to_pr, (entry.id, sample)
            assert report.d <= entry.base_dim(**sample), (entry.id, sample)
    for n in range(1, 7):
        report = analyze(catalog.claimed_poincare("hamiltonian-critical", n=n))
        assert report.d == n
        assert dict(
            (poly.coeffs, mult) for poly, mult in report.other_unit_poles
        ) == {(Fraction(1), Fraction(1)): n}  # (1 + z)^n
        assert report.sigma == Fraction(1, 2**n)
    _announce(
        4,
        "single pole at z=1 with d <= base_dim for every counting entry; "
        "the Hamiltonian family has poles of equal order n at both signs and "
        "sigma = 2^-n",
    )


REFERENCE_TABLE = {
    "sigma0": "0",
    "sigma1": "z/(1-z)",
    "sigma2": "(z-z^2+z^3)/(1-z)",
    "sigma3": "(z+z^3)/(1-z)",
    "sigma4": "(z+z^4)/(1-z)",
    "sigma5": "(z-z^3+z^4)/(1-z)",
    "sigma6": "(z+2*z^4)/(1-z)",
    "sigma-infinity": "z/(1-z)",
}

CONSISTENT_ROWS = [label for label in REFERENCE_TABLE if label != "sigma5"]


def _table_rows(seed):
    return {row.label: row for row in lie_example_table(7, seed)}


def test_criterion_5_strata_table_and_determinism():
    start = time.perf_counter()
    tables = [_table_rows(seed) for seed in (2024, 1, 99)]
    elapsed = time.perf_counter() - start
    for label in CONSISTENT_ROWS:
        reference = parse_rational_function(REFERENCE_TABLE[label])
        reference_h = tuple(int(c) for c in reference.series(7))
        for table in tables:
            assert table[label].h == reference_h, label
            assert table[label].counting_function == reference, label
    # determinism: identical results across the three seeds
    for label in REFERENCE_TABLE:
        values = {table[label].h for table in tables}
        assert len(values) == 1, label
    assert elapsed < 300.0, f"strata tables took {elapsed:.1f}s"
    _announce(
        5,
        f"7 of 8 table rows match the reference counting functions to k=7, "
        f"determinism across 3 seeds, {elapsed:.1f}s; the tabulated sigma5 "
        "row is inconsistent with its own prolongation formula (documented "
        "finding; see the strict-xfail test)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the tabulated sigma5 row (z-z^3+z^4)/(1-z) implies h_4 = 1, but "
        "the stratum's own prolongation formula forces h_4 = 2 (three "
        "second-order jet parameters reach the five new order-4 "
        "coordinates through u12, and no fourth row exists); engine and "
        "independent closed-form oracle agree on (z-z^3+2z^4)/(1-z)"
    ),
)
def test_criterion_5_sigma5_tabulated_row_faithful():
    table = _table_rows(2024)
    tabulated = parse_rational_function(REFERENCE_TABLE["sigma5"])
    assert table["sigma5"].counting_function == tabulated


def test_criterion_5_sigma5_finding_pinned_by_oracle():
    table = _table_rows(2024)
    _, h_oracle = xreparam_stratum_oracle(5, 7, 4321)
    assert list(table["sigma5"].h) == h_oracle == [0, 1, 1, 0, 2, 2, 2, 2]
    assert table["sigma5"].counting_function == parse_rational_function(
        "(z-z^3+2*z^4)/(1-z)"
    )


def test_criterion_6_invariant_annihilation():
    scenario = get_scenario("x-reparam")
    pairs = [
        (label, expr)
        for label, exprs in scenario.invariants.items()
        for expr in exprs
    ]
    assert len(pairs) == 10  # the printed invariants, per stratum
    for label, expr in pairs:
        assert annihilation_check(scenario, expr, label, seed=20240815), (label, expr)
    assert not annihilation_check(scenario, "u20", "sigma1", seed=20240815)
    _announce(
        6,
        "all printed invariants are annihilated along every generator at 20 "
        "seeded points each; the u20 negative control fails as it must",
    )


def test_criterion_7_metric_lift_cross_module():
    h = stratum_codim_sequence(get_scenario("metric2d"), "generic", 4, 20240815)[1]
    assert h == [0, 0, 1, 1, 3]
    assert h == catalog.hilbert_spec("riemannian", n=2).values(4)
    _announce(
        7,
        "rank-counted plane-metric moduli [0,0,1,1,3] match the catalog "
        "2D metric sequence",
    )


def test_criterion_8_cross_entry_identities():
    assert catalog.claimed_poincare(
        "projective-connections", n=2
    ) == catalog.claimed_poincare("ode-cubic")
    for n in range(2, 9):
        assert catalog.claimed_poincare(
            "metrizable-connections", n=n
        ) == catalog.claimed_poincare("riemannian", n=n) / RF.z()
    assert catalog.hilbert_spec("kaehler", n=1) == catalog.hilbert_spec(
        "riemannian", n=2
    )
    _announce(
        8,
        "projective(n=2) == cubic ODE, metrizable == metric/z, "
        "kaehler(n=1) == 2D metric",
    )


def test_criterion_9_property_suites():
    rng = random.Random(987654321)

    def random_poly(zero_ok=True, max_deg=5):
        deg = rng.randint(0 if zero_ok else 1, max_deg)
        return Polynomial(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg + 1)]
        )

    cases = 0
    # canonical-form property
    while cases < 600:
        a, b, c = random_poly(), random_poly(), random_poly()
        if b.is_zero() or c.is_zero():
            continue
        assert RF(a * c, b * c) == RF(a, b)
        cases += 1
    # series recurrence: den * series == num through the truncation order
    recurrence_cases = 0
    while recurrence_cases < 250:
        a, b = random_poly(), random_poly()
        if b.is_zero() or b.coefficient(0) == 0:
            continue
        f = RF(a, b)
        series = list(f.series(10))
        for k in range(11):
            acc = Fraction(0)
            for j in range(0, min(k, f.den.degree) + 1):
                acc += f.den.coefficient(j) * series[k - j]
            assert acc == f.num.coefficient(k)
        cases += 1
        recurrence_cases += 1
    # round trips through the spec representation for random tails
    round_trips = 0
    while round_trips < 150:
        tail_deg = rng.randint(0, 3)
        tail = Polynomial([rng.randint(0, 6) for _ in range(tail_deg + 1)])
        start = rng.randint(0, 4)
        exceptions = {
            k: rng.randint(0, 9) for k in range(start) if rng.random() < 0.5
        }
        try:
            from poincount.hilbert import HilbertSpec

            spec = HilbertSpec(exceptions, start, tail_values(tail, start))
        except ValueError:
            continue
        assert spec_from_gf(gf_from_hilbert(spec), 60) == spec
        cases += 1
        round_trips += 1
    # catalog round trips at K = 60
    for entry in catalog.list_entries():
        if entry.hilbert is None:
            continue
        for sample in entry.samples(6):
            spec = entry.hilbert(**sample)
            assert spec_from_gf(gf_from_hilbert(spec), 60) == spec
            cases += 1
    assert cases >= 1000, cases
    _announce(
        9,
        f"round-trip and algebra property suites passed over {cases} "
        "randomized/derived cases with fixed seeds",
    )
