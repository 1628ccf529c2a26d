"""Per-layer tracing from outside the package.

The tracer wraps public functions of each poincount module for the length
of a traced run and restores them afterwards; nothing under ``src/`` is
edited.  A wrapper replaces the original in every ``poincount`` module
namespace that binds it (``gf_from_hilbert`` is bound in hilbert, catalog,
cli, jetflow and the package root), so calls through any import path are
seen.  A target whose name no longer exists is reported as absent.

Each wrapped call records a span (id, name, start, end, parent span, job
id) in memory; aggregates per name (calls, inclusive and self time) and a
few counters taken at the same boundaries feed the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """``attr`` is a module-level name or ``Class.method`` in ``module``."""

    name: str
    module: str
    attr: str
    before: Optional[Callable] = None
    after: Optional[Callable] = None


def _series_terms(tracer, args, kwargs):
    order = kwargs["order"] if "order" in kwargs else args[1]
    tracer.counts["algebra.series.terms"] += order + 1


def _gcd_inside_gf(tracer, args, kwargs):
    if tracer.active["hilbert.gf_from_hilbert"]:
        tracer.counts["hilbert.gf_from_hilbert.gcd"] += 1


def _rank_cells(tracer, args, kwargs):
    rows = kwargs["rows"] if "rows" in kwargs else args[0]
    tracer.counts["jetpoly.matrix_rank.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    if tracer.active["jetflow.stratum_codim_sequence"]:
        tracer.counts["jetpoly.matrix_rank.in_sequence"] += 1


def _sample_in_sequence(tracer, args, kwargs):
    if tracer.active["jetflow.stratum_codim_sequence"]:
        tracer.counts["jetflow.sample_stratum_point.in_sequence"] += 1


def _sequence_order(tracer, args, kwargs):
    k_max = kwargs["k_max"] if "k_max" in kwargs else args[2]
    tracer.span_args[tracer.next_id()] = {"k_max": k_max}


def _count_mismatch(tracer, result):
    if getattr(result, "status", None) == "mismatch":
        tracer.counts["catalog.verify_entry.mismatch"] += 1


TARGETS = (
    Target("algebra.poly_gcd", "poincount.algebra", "poly_gcd", before=_gcd_inside_gf),
    Target("algebra.ratfun_canon", "poincount.algebra", "RationalFunction.__init__"),
    Target("algebra.series", "poincount.algebra", "RationalFunction.series", before=_series_terms),
    Target("algebra.cyclotomic_factors", "poincount.algebra", "cyclotomic_factors"),
    Target("hilbert.gf_from_hilbert", "poincount.hilbert", "gf_from_hilbert"),
    Target("hilbert.equal_series", "poincount.hilbert", "equal_series"),
    Target("catalog.verify_entry", "poincount.catalog", "verify_entry", after=_count_mismatch),
    Target("analysis.analyze", "poincount.analysis", "analyze"),
    Target("analysis.s_sequence", "poincount.analysis", "s_sequence"),
    Target("exprs.parse_rational_function", "poincount.exprs", "parse_rational_function"),
    Target("counting.assemble_hilbert", "poincount.counting", "assemble_hilbert"),
    Target("jetflow.instantiate", "poincount.jetflow", "Scenario.instantiate"),
    Target("jetflow.prolong", "poincount.jetflow", "prolong"),
    Target("jetflow.sample_stratum_point", "poincount.jetflow", "sample_stratum_point",
           before=_sample_in_sequence),
    Target("jetflow.stratum_codim_sequence", "poincount.jetflow", "stratum_codim_sequence",
           before=_sequence_order),
    Target("jetpoly.matrix_rank", "poincount.jetpoly", "matrix_rank", before=_rank_cells),
    Target("cli.run", "poincount.cli", "run"),
)

JOB_SPAN = "bench.job"


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.span_args: dict[int, dict] = {}
        self.job_id: Optional[str] = None
        self._stack: list[list] = []  # [span id, name, start ns, child ns]

    def next_id(self) -> int:
        """Id of the next span to open: every span started so far is either
        finished or still open."""
        return len(self.spans) + len(self._stack)

    def start_job(self, job_id: str) -> None:
        """Open the root span of one job; close it with ``exit``."""
        self.job_id = job_id
        self.enter(JOB_SPAN)

    def enter(self, name: str) -> None:
        self._stack.append([self.next_id(), name, time.perf_counter_ns(), 0])
        self.active[name] += 1

    def exit(self) -> None:
        """Close the innermost open span."""
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = end - start
        self.active[name] -= 1
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        if not self.active[name]:  # count nested calls of one name once
            self.total_ns[name] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (span_id, name, start, end, parent[0] if parent else None, self.job_id)
        )

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "job": job,
                }) + "\n")


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    name, before, after = target.name, target.before, target.after

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer, result)
        return result

    return traced


class Patches:
    """Installs wrappers for ``targets``; ``restore`` puts the originals back."""

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.bound_in: dict[str, list[str]] = {}
        self.absent: list[str] = []
        self._undo: list[tuple] = []
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "poincount" or key.startswith("poincount."))
        ]
        for target in targets:
            module = sys.modules.get(target.module)
            owner_name, _, method = target.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(method) if isinstance(owner, type) else None
            else:
                original = getattr(module, target.attr, None)
            if original is None:
                self.absent.append(target.name)
                continue
            wrapper = _wrap(tracer, target, original)
            if owner_name:
                self._set(owner, method, wrapper, original)
                self.bound_in[target.name] = [f"{target.module}.{target.attr}"]
                continue
            places = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, original)
                        places.append(f"{mod.__name__}.{key}")
            self.bound_in[target.name] = places

    def _set(self, owner, key, wrapper, original) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


def per_layer(tracer: Tracer, passes: int, overhead_s: float) -> dict:
    """Per-layer metrics per pass of the job list, as {name: (value, unit)}."""
    calls, counts = tracer.calls, tracer.counts

    def n(key):
        return calls[key] / passes

    def s(key):
        return tracer.total_ns[key] / 1e9 / passes

    def self_s(key):
        return tracer.self_ns[key] / 1e9 / passes

    def ratio(num, den):
        return num / den if den else 0.0

    sequences = calls["jetflow.stratum_codim_sequence"]
    out = {
        "algebra.poly_gcd.calls": (n("algebra.poly_gcd"), "count"),
        "algebra.poly_gcd.s": (s("algebra.poly_gcd"), "s"),
        "algebra.ratfun_canon.calls": (n("algebra.ratfun_canon"), "count"),
        "algebra.series.calls": (n("algebra.series"), "count"),
        "algebra.series.terms": (counts["algebra.series.terms"] / passes, "count"),
        "algebra.series.s": (s("algebra.series"), "s"),
        "algebra.cyclotomic_factors.s": (s("algebra.cyclotomic_factors"), "s"),
        "hilbert.gf_from_hilbert.calls": (n("hilbert.gf_from_hilbert"), "count"),
        "hilbert.gf_from_hilbert.s": (s("hilbert.gf_from_hilbert"), "s"),
        "hilbert.gf_from_hilbert.gcd_per_call": (
            ratio(counts["hilbert.gf_from_hilbert.gcd"], calls["hilbert.gf_from_hilbert"]), "ratio"),
        "hilbert.equal_series.s": (s("hilbert.equal_series"), "s"),
        "catalog.verify_entry.calls": (n("catalog.verify_entry"), "count"),
        "catalog.verify_entry.s": (s("catalog.verify_entry"), "s"),
        "catalog.verify_entry.self_s": (self_s("catalog.verify_entry"), "s"),
        "catalog.verify_entry.mismatch": (counts["catalog.verify_entry.mismatch"] / passes, "count"),
        "analysis.analyze.s": (s("analysis.analyze"), "s"),
        "analysis.s_sequence.s": (s("analysis.s_sequence"), "s"),
        "exprs.parse_rational_function.calls": (n("exprs.parse_rational_function"), "count"),
        "exprs.parse_rational_function.s": (s("exprs.parse_rational_function"), "s"),
        "counting.assemble_hilbert.calls": (n("counting.assemble_hilbert"), "count"),
        "counting.assemble_hilbert.s": (s("counting.assemble_hilbert"), "s"),
        "jetflow.instantiate.calls": (n("jetflow.instantiate"), "count"),
        "jetflow.instantiate.s": (s("jetflow.instantiate"), "s"),
        "jetflow.prolong.calls": (n("jetflow.prolong"), "count"),
        "jetflow.prolong.s": (s("jetflow.prolong"), "s"),
        "jetflow.engine_builds_per_sequence": (
            ratio(calls["jetflow.instantiate"], sequences), "ratio"),
        "jetflow.sample_stratum_point.calls": (n("jetflow.sample_stratum_point"), "count"),
        "jetflow.sample_stratum_point.s": (s("jetflow.sample_stratum_point"), "s"),
        "jetflow.samples_per_sequence": (
            ratio(calls["jetflow.sample_stratum_point"], sequences), "ratio"),
        "jetflow.stratum_codim_sequence.s": (s("jetflow.stratum_codim_sequence"), "s"),
        "jetflow.stratum_codim_sequence.self_s": (self_s("jetflow.stratum_codim_sequence"), "s"),
        "jetpoly.matrix_rank.calls": (n("jetpoly.matrix_rank"), "count"),
        "jetpoly.matrix_rank.s": (s("jetpoly.matrix_rank"), "s"),
        "jetpoly.matrix_rank.cells": (counts["jetpoly.matrix_rank.cells"] / passes, "count"),
        "jetpoly.matrix_rank.calls_per_point": (
            ratio(counts["jetpoly.matrix_rank.in_sequence"],
                  counts["jetflow.sample_stratum_point.in_sequence"]), "ratio"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return out


def span_shares(tracer: Tracer, wall_ns: int) -> list:
    """Layers ranked by inclusive time as a share of the traced wall time,
    leaving out the job-level spans that cover every call of a job."""
    job_level = {JOB_SPAN, "cli.run", "catalog.verify_entry"}
    shares = [
        (name, tracer.total_ns[name] / wall_ns)
        for name in tracer.total_ns if name not in job_level
    ]
    return sorted(shares, key=lambda item: -item[1])


def sequence_facts(tracer: Tracer) -> list:
    """Per kind of stratum_codim_sequence span (its order, engine builds,
    sampled points and rank calls inside it), with how often it occurred."""
    children: dict = {}
    for span_id, name, _, _, parent, _ in tracer.spans:
        children.setdefault(parent, Counter())[name] += 1
    kinds: Counter = Counter()
    for span_id, name, _, _, _, _ in tracer.spans:
        if name == "jetflow.stratum_codim_sequence":
            inside = children.get(span_id, Counter())
            kinds[(
                tracer.span_args.get(span_id, {}).get("k_max"),
                inside["jetflow.instantiate"],
                inside["jetflow.sample_stratum_point"],
                inside["jetpoly.matrix_rank"],
            )] += 1
    return [
        {"k_max": k_max, "engine_builds": builds, "points": points,
         "matrix_rank_calls": ranks, "sequences": count}
        for (k_max, builds, points, ranks), count in sorted(kinds.items())
    ]
