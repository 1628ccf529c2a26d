import dataclasses

import pytest

from poincount import catalog
from poincount.algebra import ONE_MINUS_Z, Polynomial, RationalFunction
from poincount.analysis import analyze
from poincount.errors import UsageError
from poincount.exprs import MAX_NMAX
from poincount.hilbert import HilbertSpec, gf_from_hilbert, spec_from_gf

from oracles import tail_values

P = Polynomial
RF = RationalFunction

SECTION3_IDS = [
    "ode-general",
    "ode-cubic",
    "ode-lie-form",
    "riemannian",
    "einstein",
    "self-dual-metrics",
    "kaehler",
    "hyper-kaehler",
    "linear-connections",
    "symmetric-connections",
    "metric-connections",
    "metric-connections-skew-torsion",
    "metrizable-connections",
    "fedosov",
    "projective-connections",
    "conformal",
    "weyl",
    "einstein-weyl",
    "self-dual-conformal",
    "almost-complex",
]


def test_roster_size_and_members():
    entries = catalog.list_entries()
    assert len(entries) == 22
    ids = [e.id for e in entries]
    for required in ("ode-general", "riemannian", "almost-complex"):
        assert required in ids
    assert ids == SECTION3_IDS + ["hamiltonian-critical", "poincare-dulac"]


def test_einstein_validity_note():
    entry = catalog.get_entry("einstein")
    assert "degenerate" in entry.validity_note
    assert catalog.claimed_poincare("einstein", n=2) == RF(P((0, 0, 1)))
    assert catalog.claimed_poincare("einstein", n=3) == RF(P((0, 0, 1)))
    assert catalog.hilbert_spec("einstein", n=3).values(4) == [0, 0, 1, 0, 0]


def test_hamiltonian_flagged_for_other_poles():
    entry = catalog.get_entry("hamiltonian-critical")
    assert catalog.OTHER_UNIT_POLES in entry.flags


def test_hilbert_spec_almost_complex_table():
    assert catalog.hilbert_spec("almost-complex", n=3).values(6) == [
        0,
        2,
        64,
        282,
        792,
        1806,
        3612,
    ]


def test_hilbert_spec_kaehler_n1_equals_riemannian_n2():
    assert catalog.hilbert_spec("kaehler", n=1) == catalog.hilbert_spec(
        "riemannian", n=2
    )


def test_hilbert_spec_conformal_3d():
    spec = catalog.hilbert_spec("conformal", n=3)
    assert [spec.values(k)[k] for k in (3, 4, 5)] == [1, 9, 21]


def test_claimed_poincare_weyl_2d():
    # normalized form of the 2D display with the delta correction active
    assert catalog.claimed_poincare("weyl", n=2) == RF(
        P((0, 1, 1, 1, -1)), ONE_MINUS_Z**2
    )


def test_claimed_poincare_normal_form_cases():
    assert catalog.claimed_poincare("poincare-dulac-nonresonant") == RF(P((0, 2)))
    assert catalog.claimed_poincare("poincare-dulac-saddle", p=1, q=1) == RF(
        P((0, 1, 0, 1, 0, 1))
    )
    assert catalog.claimed_poincare("poincare-dulac", case="poincare-domain", m=3) == RF(
        P((0, 1, 0, 1))
    )
    # the saddle-node closed form reduces to a polynomial
    f = catalog.claimed_poincare("poincare-dulac-saddle-node", m=2)
    assert f == RF(P((0, 1, 1, 0, 0, 1)))


def test_unknown_entry_and_bad_params():
    with pytest.raises(catalog.UnknownEntry):
        catalog.hilbert_spec("nonsense")
    with pytest.raises(catalog.OutOfValidity):
        catalog.hilbert_spec("riemannian", n=1)
    with pytest.raises(catalog.OutOfValidity, match=r"riemannian: unknown parameters \['m'\]"):
        catalog.claimed_poincare("riemannian", n=2, m=3)
    with pytest.raises(catalog.OutOfValidity, match=r"unknown parameters \['n'\]"):
        catalog.claimed_poincare("ode-general", n=2)
    with pytest.raises(catalog.OutOfValidity):
        catalog.claimed_poincare("self-dual-metrics", n=5)
    with pytest.raises(catalog.OutOfValidity):
        catalog.claimed_poincare("poincare-dulac", case="saddle", p=1)
    with pytest.raises(catalog.NoHilbertData):
        catalog.hilbert_spec("metric-connections-skew-torsion", n=4)
    with pytest.raises(catalog.NoHilbertData):
        catalog.hilbert_spec("hamiltonian-critical", n=1)


def test_verify_entry_riemannian_match():
    report = catalog.verify_entry("riemannian", {"n": 2}, 50)
    assert report.status == "match" and report.detail is None


def test_verify_entry_self_dual_conformal():
    report = catalog.verify_entry("self-dual-conformal", {"n": 4}, 50)
    assert report.status == "match"
    p = catalog.claimed_poincare("self-dual-conformal", n=4)
    assert analyze(p).d == 3 <= 4


def test_verify_entry_takens_bogdanov_skipped_with_pole_factors():
    report = catalog.verify_entry("takens-bogdanov", {}, 20)
    assert report.status == "skipped"
    factors = dict(report.detail["pole_factors"])
    assert factors == {"-1 + z": 1, "1 + z + z^2": 1}


def test_verify_all_clean():
    reports = catalog.verify_all(50, 8)
    assert all(r.status != "mismatch" for r in reports)
    by_id = {}
    for r in reports:
        by_id.setdefault(r.entry_id, []).append(r)
    for entry_id in SECTION3_IDS:
        statuses = {r.status for r in by_id[entry_id]}
        if entry_id == "metric-connections-skew-torsion":
            assert statuses == {"skipped"}
        else:
            assert statuses == {"match"}


def test_metrizable_is_riemannian_shifted():
    for n in range(2, 9):
        assert catalog.claimed_poincare(
            "metrizable-connections", n=n
        ) == catalog.claimed_poincare("riemannian", n=n) / RF.z()


def test_einstein_4d_display():
    assert catalog.claimed_poincare("einstein", n=4) == RF(
        P((0, 0, 5, 9, -15, 5)), ONE_MINUS_Z**3
    )


def test_projective_2d_equals_cubic_ode():
    assert catalog.claimed_poincare(
        "projective-connections", n=2
    ) == catalog.claimed_poincare("ode-cubic")


def test_pole_bound_and_equality_cases():
    equality_ids = {"riemannian", "kaehler", "linear-connections", "almost-complex"}
    for entry in catalog.list_entries():
        if entry.id in ("hamiltonian-critical", "poincare-dulac"):
            continue
        for sample in entry.samples(8):
            p = entry.claimed_p(**sample)
            d = analyze(p).d
            base = entry.base_dim(**sample)
            assert d <= base, (entry.id, sample)
            if entry.id in equality_ids:
                assert d == base, (entry.id, sample)


def test_h0_equals_constant_coefficient():
    for entry in catalog.list_entries():
        if entry.hilbert is None:
            continue
        for sample in entry.samples(6):
            p = entry.claimed_p(**sample)
            assert p.den.coefficient(0) != 0
            spec = entry.hilbert(**sample)
            assert p.coefficient(0) == spec.values(0)[0]


def test_gf_equals_claimed_for_all_hilbert_entries():
    for entry in catalog.list_entries():
        if entry.hilbert is None:
            continue
        for sample in entry.samples(8):
            spec = entry.hilbert(**sample)
            assert gf_from_hilbert(spec) == entry.claimed_p(**sample), (
                entry.id,
                sample,
            )


def _hilbert_cases():
    """(entry, params) for every Hilbert entry's samples with n <= 8, and
    n = 9..16 for every one-parameter family valid there."""
    for entry in catalog.list_entries():
        if entry.hilbert is None:
            continue
        for sample in entry.samples(8):
            yield entry, sample
        if entry.params == ("n",):
            for n in range(9, 17):
                if entry.validity(n=n):
                    yield entry, {"n": n}


def test_every_catalog_spec_equals_the_spec_fitted_to_its_closed_form():
    cases = 0
    for entry, params in _hilbert_cases():
        spec = entry.hilbert(**params)
        deg = spec.tail.degree
        assert deg == len(spec._newton) - 1, (entry.id, params)
        oracle = spec_from_gf(entry.claimed_p(**params), spec.tail_start + 2 * deg + 12)
        assert spec == oracle, (entry.id, params)
        # the tail derived from the Newton row takes the spec's values
        for k in range(spec.tail_start, spec.tail_start + deg + 6):
            assert spec.tail.evaluate(k) == spec.values(k)[k], (entry.id, params, k)
        cases += 1
    assert cases == 102 + 112


def test_verify_all_builds_no_fraction_polynomial_and_no_polynomial_tail(monkeypatch):
    """The catalog hands every tail over as integer values, the one form a
    HilbertSpec takes, so the verify path builds no Polynomial with a
    Fraction coefficient (a tail built from binomials C(k + s, r) as
    polynomials in k, with their 1/r! scale, makes those)."""
    built = []
    init = Polynomial.__init__

    def counting_init(self, coeffs=()):
        init(self, coeffs)
        if any(type(c) is not int for c in self.coeffs):
            built.append(self)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    reports = catalog.verify_all(50, 8)
    assert len(reports) == 124
    assert built == []


def test_alias_resolution():
    entry, implied = catalog.resolve("takens-bogdanov")
    assert entry.id == "poincare-dulac"
    assert implied == {"case": "takens-bogdanov"}
    with pytest.raises(catalog.OutOfValidity):
        # alias-implied case conflicts with an extra parameter
        catalog.claimed_poincare("poincare-dulac-nonresonant", m=2)


def test_poincare_dulac_cases_give_samples_note_and_aliases():
    # the case table is the one statement of the cases: each case has an
    # alias, its samples pass the validity check and the note names it
    entry = catalog.get_entry("poincare-dulac")
    samples = entry.samples(0)
    assert {s["case"] for s in samples} == set(catalog._PD_CASES)
    for sample in samples:
        assert entry.check_params(sample) == sample
    for case, pd in catalog._PD_CASES.items():
        assert catalog.resolve(f"poincare-dulac-{case}") == (entry, {"case": case})
        assert case in entry.validity_note and pd.phrase in entry.validity_note
        with pytest.raises(catalog.OutOfValidity):
            catalog.claimed_poincare("poincare-dulac", case=case, m=0, p=0, q=0)


def test_skew_torsion_stabilizer_sequence():
    assert [catalog.skew_torsion_stabilizer(n) for n in range(3, 8)] == [3, 3, 2, 0, 0]


#: (first n, last n or None, factor c of the base dimension c*n) of every
#: entry with the one parameter n, as the survey states them
N_FAMILIES = {
    "riemannian": (2, None, 1),
    "einstein": (2, None, 1),
    "self-dual-metrics": (4, 4, 1),
    "kaehler": (1, None, 2),
    "hyper-kaehler": (1, None, 4),
    "linear-connections": (2, None, 1),
    "symmetric-connections": (2, None, 1),
    "metric-connections": (2, None, 1),
    "metric-connections-skew-torsion": (3, None, 1),
    "metrizable-connections": (2, None, 1),
    "fedosov": (1, None, 2),
    "projective-connections": (2, None, 1),
    "conformal": (3, None, 1),
    "weyl": (2, None, 1),
    "einstein-weyl": (3, None, 1),
    "self-dual-conformal": (4, 4, 1),
    "almost-complex": (2, None, 2),
    "hamiltonian-critical": (1, None, 2),
}


def test_every_sample_is_valid_and_within_nmax():
    for entry in catalog.list_entries():
        for nmax in range(MAX_NMAX + 1):
            for sample in entry.samples(nmax):
                assert entry.check_params(sample) == sample, (entry.id, sample)
                assert sample.get("n", 0) <= nmax, (entry.id, nmax, sample)


def test_n_families_accept_their_range_and_refuse_outside_it():
    families = [e for e in catalog.list_entries() if e.params == ("n",)]
    assert [e.id for e in families] == list(N_FAMILIES)
    for entry in families:
        first, last, c = N_FAMILIES[entry.id]
        assert entry.validity_note.startswith(f"n = {first}" if last else f"n >= {first}")
        assert entry.check_params({"n": first}) == {"n": first}
        assert catalog.base_dimension(entry.id, n=first) == c * first
        refused = [first - 1] + ([last + 1] if last else [])
        for n in refused:
            with pytest.raises(catalog.OutOfValidity) as info:
                catalog.claimed_poincare(entry.id, n=n)
            assert str(info.value) == (
                f"{entry.id}: parameters {{'n': {n}}} outside validity ({entry.validity_note})"
            )


def test_select_samples_empty_selection_names_the_smallest_n():
    for entry_id, smallest in (("einstein", 4), ("self-dual-metrics", 4), ("conformal", 3)):
        with pytest.raises(UsageError) as info:
            catalog.select_samples(entry_id, smallest - 1)
        assert str(info.value) == (
            f"{entry_id} has no sample with n <= {smallest - 1}; "
            f"the smallest n with a sample is {smallest}"
        )
        entry, samples = catalog.select_samples(entry_id, smallest)
        assert samples == [{"n": smallest}]
    # fixed samples ignore nmax, and an alias keeps only its own case
    entry, samples = catalog.select_samples("poincare-dulac-saddle", 0)
    assert samples == [{"case": "saddle", "p": 1, "q": 1}, {"case": "saddle", "p": 1, "q": 2}]


# ---------------------------------------------------------------------------
# verify_entry findings, each provoked by a doctored roster entry
# ---------------------------------------------------------------------------


def _doctor(monkeypatch, entry_id, **changes):
    entry = dataclasses.replace(catalog.get_entry(entry_id), **changes)
    monkeypatch.setitem(catalog._BY_ID, entry_id, entry)
    return entry


def _bump(spec, k):
    """The spec with h(k) raised by one and every other value kept."""
    values = spec.values(k)
    values[k] += 1
    return HilbertSpec(dict(enumerate(values)), k + 1, tail_values(spec.tail, k + 1))


def test_verify_entry_reports_a_pole_at_the_origin(monkeypatch):
    _doctor(monkeypatch, "metric-connections-skew-torsion", claimed_p=lambda n: RF(1, P((0, 1))))
    report = catalog.verify_entry("metric-connections-skew-torsion", {"n": 3}, 10)
    assert report.status == "mismatch"
    assert report.detail["problems"]["pole_at_origin"] == "z"


def test_verify_entry_reports_a_pole_order_above_the_base_dimension(monkeypatch):
    _doctor(monkeypatch, "riemannian", base_dim=lambda n: n - 1)
    report = catalog.verify_entry("riemannian", {"n": 3}, 10)
    assert report.status == "mismatch"
    assert report.detail == {"pole_order_exceeds_base_dim": {"d": 3, "base_dim": 2}}


def test_verify_entry_reports_unexpected_unit_poles(monkeypatch):
    _doctor(monkeypatch, "hamiltonian-critical", flags=frozenset())
    report = catalog.verify_entry("hamiltonian-critical", {"n": 2}, 10)
    assert report.status == "mismatch"
    assert report.detail["problems"] == {"unexpected_unit_poles": [("1 + z", 2)]}


def test_verify_entry_closed_form_only_problem_is_a_mismatch(monkeypatch):
    _doctor(monkeypatch, "metric-connections-skew-torsion", base_dim=lambda n: 1)
    report = catalog.verify_entry("metric-connections-skew-torsion", {"n": 4}, 10)
    assert report.status == "mismatch"
    assert report.detail == {
        "reason": "no-hilbert-data",
        "pole_order": 4,
        "pole_factors": [("-1 + z", 4)],
        "problems": {"pole_order_exceeds_base_dim": {"d": 4, "base_dim": 1}},
    }


def test_verify_entry_reports_gf_and_series_mismatches(monkeypatch):
    spec = catalog.hilbert_spec("riemannian", n=3)
    _doctor(monkeypatch, "riemannian", hilbert=lambda n: _bump(spec, 40))
    claimed = str(catalog.claimed_poincare("riemannian", n=3))
    # below k = 40 the series agree, and only the generating functions differ
    report = catalog.verify_entry("riemannian", {"n": 3}, 39)
    assert report.status == "mismatch"
    assert list(report.detail) == ["gf_mismatch"]
    assert report.detail["gf_mismatch"]["claimed"] == claimed
    assert report.detail["gf_mismatch"]["from_hilbert"] != claimed
    report = catalog.verify_entry("riemannian", {"n": 3}, 50)
    assert list(report.detail) == ["gf_mismatch", "series_mismatch"]
    h40 = spec.values(40)[40]
    assert report.detail["series_mismatch"] == {"k": 40, "expected": h40 + 1, "got": str(h40)}
    # a wrong h(0) is a series mismatch at k = 0
    _doctor(monkeypatch, "riemannian", hilbert=lambda n: _bump(spec, 0))
    report = catalog.verify_entry("riemannian", {"n": 3}, 0)
    assert list(report.detail) == ["gf_mismatch", "series_mismatch"]
    assert report.detail["series_mismatch"] == {"k": 0, "expected": 1, "got": "0"}
