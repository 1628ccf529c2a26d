"""Workloads: job lists built from a seed, and an exact check for every job.

A job is one CLI call through ``poincount.cli.run(argv, stdout=StringIO)``
or, where the CLI refuses the size (``metric2d`` is cost-guarded to
k <= 4), one library call whose result is serialised to JSON.  Building a
job list touches only the inputs; the expected values each check compares
against are computed from sources independent of the code path under test
(Hilbert data for closed forms, integer recurrences for the generated
expressions, literal tables for the strata) and only when a check runs,
so they stay out of the timed set-up.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import poincount.cli
import poincount.jetflow
from poincount import catalog, counting, jetflow

from .scenarios import METRIC3D

WORKLOADS = ("catalog-verify", "analyze-series", "strata-demo", "metric-rank")
SIZES = ("full", "tiny")

#: verify reports over the whole roster at --nmax 8
FULL_VERIFY_REPORTS = 124

#: h_0..h_7 of the x-reparam strata.  sigma5 is the value the engine and the
#: closed-form oracle of the test suite agree on; the classically tabulated
#: row, 0 1 1 0 1 1 1 1, contradicts the stratum's own prolongation formula.
EXPECTED_STRATA_H = {
    "sigma0": [0, 0, 0, 0, 0, 0, 0, 0],
    "sigma1": [0, 1, 1, 1, 1, 1, 1, 1],
    "sigma2": [0, 1, 0, 1, 1, 1, 1, 1],
    "sigma3": [0, 1, 1, 2, 2, 2, 2, 2],
    "sigma4": [0, 1, 1, 1, 2, 2, 2, 2],
    "sigma5": [0, 1, 1, 0, 2, 2, 2, 2],
    "sigma6": [0, 1, 1, 1, 3, 3, 3, 3],
    "sigma-infinity": [0, 1, 1, 1, 1, 1, 1, 1],
}

EXPECTED_DISTRIBUTION = [
    ["r != 0", 2, "t - s^2/r annihilated: yes; t - s^2/t annihilated: no"],
    ["r = 0, s != 0", 2, "-"],
    ["r = s = 0", 0, "t annihilated: yes"],
]


@dataclass
class Job:
    """One unit of work: ``argv`` for the CLI, or ``call`` returning JSON text.

    ``check(code, stdout)`` returns None when the output is exactly right,
    otherwise a one-line reason.
    """

    name: str
    kind: str
    check: Callable[[int, str], Optional[str]]
    argv: Optional[list] = None
    call: Optional[Callable[[], str]] = None


@dataclass
class Workload:
    name: str
    jobs: list
    seeds: list
    seed_note: str
    pass_check: Optional[Callable[[list], Optional[str]]] = None


def run_job(job: Job) -> tuple[int, str]:
    """Run one job; the CLI is looked up at call time so tracing can wrap it."""
    if job.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        code = poincount.cli.run(job.argv, stdout=out, stderr=err)
        text = out.getvalue()
        if code != 0 and err.getvalue():
            text += err.getvalue()
        return code, text
    return 0, job.call()


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; known: {SIZES}")
    return _BUILDERS[name](seed, size == "tiny")


def _derived_seeds(workload: str, seed: int, count: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 10**6) for _ in range(count)]


def _payload(code: int, out: str):
    """Parsed JSON payload, or a reason string when the job did not succeed."""
    if code != 0:
        return f"exit code {code}: {out.strip()[-200:]}"
    try:
        return json.loads(out)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"


def _rat(value) -> int | dict:
    """The CLI's exact JSON encoding of a rational."""
    f = Fraction(value)
    if f.denominator == 1:
        return int(f)
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _first_difference(label: str, got: list, want: list) -> Optional[str]:
    if len(got) != len(want):
        return f"{label}: {len(got)} values, expected {len(want)}"
    for k, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"{label}[{k}] = {g!r}, expected {w!r}"
    return None


def _params_key(params: dict) -> tuple:
    return tuple(sorted(params.items()))


@lru_cache(maxsize=None)
def _spec_values(entry_id: str, params_key: tuple, k_max: int) -> tuple:
    return tuple(catalog.hilbert_spec(entry_id, **dict(params_key)).values(k_max))


@lru_cache(maxsize=None)
def _spec_pole(entry_id: str, params_key: tuple) -> tuple:
    """(d, sigma) read off the Hilbert data: a degree-m tail a*k^m + ... sums
    to a*m!/(1-z)^(m+1) at leading order; a zero tail leaves a polynomial."""
    spec = catalog.hilbert_spec(entry_id, **dict(params_key))
    tail = spec.tail
    if tail.is_zero():
        return 0, Fraction(sum(spec.values(spec.tail_start)))
    m = tail.degree
    factorial = 1
    for i in range(2, m + 1):
        factorial *= i
    return m + 1, tail.leading() * factorial


# ---------------------------------------------------------------------------
# catalog-verify
# ---------------------------------------------------------------------------


def _catalog_verify(seed: int, tiny: bool) -> Workload:
    k_max, n_max = (12, 3) if tiny else (50, 8)
    entries = catalog.list_entries()
    if tiny:
        entries = entries[:6]
    jobs = []
    for entry in entries:
        argv = ["--format", "json", "verify", "--id", entry.id,
                "--kmax", str(k_max), "--nmax", str(n_max)]
        jobs.append(Job(f"verify:{entry.id}", "verify", _verify_check(entry.id, n_max), argv=argv))
    expected_total = None if tiny else FULL_VERIFY_REPORTS

    def pass_check(outputs: list) -> Optional[str]:
        payloads = [_payload(code, out) for code, out in outputs]
        total = sum(p["fields"]["reports"] for p in payloads if isinstance(p, dict))
        if expected_total is not None and total != expected_total:
            return f"{total} verify reports, expected {expected_total}"
        return None

    return Workload("catalog-verify", jobs, [], "unused: the input is fixed", pass_check)


def _verify_check(entry_id: str, n_max: int):
    def check(code: int, out: str) -> Optional[str]:
        payload = _payload(code, out)
        if isinstance(payload, str):
            return payload
        entry = catalog.get_entry(entry_id)
        want_status = "match" if entry.hilbert is not None else "skipped"
        fields = payload["fields"]
        if fields["mismatch"] != 0:
            return f"{fields['mismatch']} mismatch reports"
        n_samples = len(entry.samples(n_max))
        if fields["reports"] != n_samples:
            return f"{fields['reports']} reports, expected {n_samples}"
        for row in payload["tables"][0]["rows"]:
            if row[0] != entry_id or row[2] != want_status:
                return f"report {row[:3]} is not {want_status}"
        return None

    return check


# ---------------------------------------------------------------------------
# analyze-series
# ---------------------------------------------------------------------------


def _analyze_series(seed: int, tiny: bool) -> Workload:
    k_series, k_rederive = (30, 12) if tiny else (200, 40)
    n_random = 4 if tiny else 40
    jobs = []
    samples = [
        (entry, sample)
        for entry in catalog.list_entries()
        for sample in entry.samples(8)
    ]
    if tiny:
        samples = samples[::12]
    for entry, sample in samples:
        text = catalog.claimed_poincare(entry.id, **sample).format()
        argv = ["--format", "json", "analyze", "--expr", text, "--kmax", str(k_series)]
        name = f"analyze:{entry.id}:{json.dumps(sample, sort_keys=True)}"
        check = _closed_form_check(entry.id, _params_key(sample), text, k_series)
        jobs.append(Job(name, "analyze-catalog", check, argv=argv))

    expr_seed = _derived_seeds("analyze-series", seed, 1)[0]
    rng = random.Random(expr_seed)
    for i in range(n_random):
        numerator, d, e = _random_expression(rng)
        text = _expression_text(numerator, d, e)
        argv = ["--format", "json", "analyze", "--expr", text, "--kmax", str(k_series)]
        check = _generated_check(numerator, d, e, k_series)
        jobs.append(Job(f"analyze:random:{i}", "analyze-random", check, argv=argv))

    plans = [
        (structure_id, n)
        for structure_id, (_, valid) in sorted(counting.SHIPPED_PLANS.items())
        for n in valid
    ]
    if tiny:
        plans = plans[::13]
    for structure_id, n in plans:
        argv = ["--format", "json", "rederive", "--id", structure_id,
                "--n", str(n), "--kmax", str(k_rederive)]
        check = _rederive_check(structure_id, n, k_rederive)
        jobs.append(Job(f"rederive:{structure_id}:{n}", "rederive", check, argv=argv))
    return Workload(
        "analyze-series", jobs, [expr_seed],
        "derives the seed of the generated expressions",
    )


def _random_expression(rng: random.Random) -> tuple[list, int, int]:
    """N(z)/((1-z)^d (1-z^2)^e) with N(1) != 0, so the pole order at z = 1
    is exactly d + e and sigma = N(1) / 2^e."""
    d = rng.randint(0, 3)
    e = rng.randint(0, 2)
    if d + e == 0:
        d = 1
    degree = rng.randint(1, 6)
    while True:
        numerator = [rng.randint(-9, 9) for _ in range(degree + 1)]
        if numerator[-1] != 0 and sum(numerator) != 0:
            return numerator, d, e


def _expression_text(numerator: list, d: int, e: int) -> str:
    num = " + ".join(f"({c})*z^{k}" for k, c in enumerate(numerator) if c != 0)
    factors = []
    if d:
        factors.append(f"(1-z)^{d}")
    if e:
        factors.append(f"(1-z^2)^{e}")
    return f"({num})/({'*'.join(factors)})"


def _generated_expectations(numerator: list, d: int, e: int, k_max: int):
    """Coefficients by integer recurrences: dividing by (1-z) is a running
    sum, dividing by (1-z^2) a running sum over every other index."""
    coeffs = (list(numerator) + [0] * (k_max + 1))[: k_max + 1]
    for _ in range(d):
        for k in range(1, k_max + 1):
            coeffs[k] += coeffs[k - 1]
    for _ in range(e):
        for k in range(2, k_max + 1):
            coeffs[k] += coeffs[k - 2]
    # (1+z) factors of N cancel against (1-z^2)^e; the rest are poles at -1
    rest, at_minus_one = list(numerator), 0
    while at_minus_one < e:
        quotient = _divide_by_one_plus_z(rest)
        if quotient is None:
            break
        rest, at_minus_one = quotient, at_minus_one + 1
    other_poles = [["1 + z", e - at_minus_one]] if e > at_minus_one else []
    sigma = Fraction(sum(numerator), 2**e)
    return coeffs, d + e, sigma, other_poles


def _divide_by_one_plus_z(coeffs: list) -> Optional[list]:
    """Exact quotient of an integer polynomial by 1 + z, or None."""
    quotient, prev = [], 0
    for c in coeffs[:-1]:
        prev = c - prev
        quotient.append(prev)
    return quotient if coeffs[-1] == prev else None


def _generated_check(numerator: list, d: int, e: int, k_max: int):
    def check(code: int, out: str) -> Optional[str]:
        payload = _payload(code, out)
        if isinstance(payload, str):
            return payload
        coeffs, d_total, sigma, other_poles = _generated_expectations(numerator, d, e, k_max)
        fields = payload["fields"]
        if fields["functional_dimension_d"] != d_total:
            return f"d = {fields['functional_dimension_d']}, built with {d_total}"
        if fields["functional_rank_sigma"] != _rat(sigma):
            return f"sigma = {fields['functional_rank_sigma']}, built with {sigma}"
        if fields["other_unit_poles"] != other_poles:
            return f"other poles {fields['other_unit_poles']}, built with {other_poles}"
        if fields["single_pole_form"] != (not other_poles):
            return "single_pole_form disagrees with the built poles"
        rows = payload["tables"][0]["rows"]
        return _first_difference("h", [row[1] for row in rows], coeffs)

    return check


def _closed_form_check(entry_id: str, params_key: tuple, text: str, k_max: int):
    def check(code: int, out: str) -> Optional[str]:
        payload = _payload(code, out)
        if isinstance(payload, str):
            return payload
        fields = payload["fields"]
        if fields["P"] != text:
            return f"P re-rendered as {fields['P']!r}"
        rows = payload["tables"][0]["rows"] if payload["tables"] else []
        if len(rows) != k_max + 1:
            return f"{len(rows)} coefficient rows, expected {k_max + 1}"
        if catalog.get_entry(entry_id).hilbert is None:
            return None
        values = _spec_values(entry_id, params_key, k_max)
        problem = _first_difference("h", [row[1] for row in rows], list(values))
        if problem:
            return problem
        cumulative, total = [], 0
        for v in values:
            total += v
            cumulative.append(total)
        problem = _first_difference("s", [row[2] for row in rows], cumulative)
        if problem:
            return problem
        d, sigma = _spec_pole(entry_id, params_key)
        if fields["functional_dimension_d"] != d:
            return f"d = {fields['functional_dimension_d']}, Hilbert data give {d}"
        if fields["functional_rank_sigma"] != _rat(sigma):
            return f"sigma = {fields['functional_rank_sigma']}, Hilbert data give {sigma}"
        return None

    return check


def _rederive_check(structure_id: str, n: int, k_max: int):
    def check(code: int, out: str) -> Optional[str]:
        payload = _payload(code, out)
        if isinstance(payload, str):
            return payload
        if payload["fields"]["match"] is not True:
            return f"plan and catalog differ from k = {payload['fields']['first_mismatch_k']}"
        values = list(_spec_values(structure_id, (("n", n),), k_max))
        return _first_difference("from_plan", [row[1] for row in payload["tables"][0]["rows"]], values)

    return check


# ---------------------------------------------------------------------------
# strata-demo
# ---------------------------------------------------------------------------


def _strata_demo(seed: int, tiny: bool) -> Workload:
    k_max = 6 if tiny else 7
    seeds = _derived_seeds("strata-demo", seed, 1 if tiny else 2)
    jobs = [
        Job(f"strata-demo:seed={s}", "strata-demo", _strata_check(k_max),
            argv=["--format", "json", "strata-demo", "--kmax", str(k_max), "--seed", str(s)])
        for s in seeds
    ]
    return Workload("strata-demo", jobs, seeds, "derives the engine seeds")


def _strata_check(k_max: int):
    def check(code: int, out: str) -> Optional[str]:
        payload = _payload(code, out)
        if isinstance(payload, str):
            return payload
        strata, distribution = payload["tables"]
        got = {row[0]: row[1] for row in strata["rows"]}
        if list(got) != list(EXPECTED_STRATA_H):
            return f"strata {list(got)}, expected {list(EXPECTED_STRATA_H)}"
        for label, h in EXPECTED_STRATA_H.items():
            want = " ".join(str(v) for v in h[: k_max + 1])
            if got[label] != want:
                return f"{label}: h = {got[label]}, expected {want}"
        if distribution["rows"] != EXPECTED_DISTRIBUTION:
            return f"distribution rows {distribution['rows']}"
        return None

    return check


# ---------------------------------------------------------------------------
# metric-rank
# ---------------------------------------------------------------------------


def _metric_rank(seed: int, tiny: bool) -> Workload:
    cases = [
        ("metric2d", jetflow.get_scenario("metric2d"), 3 if tiny else 6, 2),
        ("metric3d", jetflow.Scenario(METRIC3D), 2 if tiny else 3, 3),
    ]
    seeds = _derived_seeds("metric-rank", seed, len(cases))
    jobs = []
    for (label, scenario, k_max, n), s in zip(cases, seeds):
        jobs.append(Job(
            f"{label}:k={k_max}:seed={s}", label,
            _metric_check(n, k_max),
            call=_codim_call(label, scenario, k_max, s),
        ))
    return Workload("metric-rank", jobs, seeds, "derives the sampling seeds")


def _codim_call(label: str, scenario, k_max: int, seed: int):
    def call() -> str:
        s, h = poincount.jetflow.stratum_codim_sequence(scenario, "generic", k_max, seed)
        return json.dumps({"scenario": label, "k_max": k_max, "seed": seed, "s": s, "h": h})

    return call


def _metric_check(n: int, k_max: int):
    def check(code: int, out: str) -> Optional[str]:
        payload = _payload(code, out)
        if isinstance(payload, str):
            return payload
        want = list(_spec_values("riemannian", (("n", n),), k_max))
        return _first_difference(f"riemannian n={n} h", payload["h"], want)

    return check


_BUILDERS = {
    "catalog-verify": _catalog_verify,
    "analyze-series": _analyze_series,
    "strata-demo": _strata_demo,
    "metric-rank": _metric_rank,
}
