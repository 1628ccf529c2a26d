"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload catalog-verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client in one process and one thread runs the workload's
fixed job list again and again (a closed loop, one pass after another)
until ``--seconds`` have passed, checks every output exactly, and prints
the metrics as the last line of stdout.  ``--trace 0`` reports the
end-to-end metrics, with times rescaled to a reference speed by
``SpeedProbe``; ``--trace 1`` runs untraced passes for the first half of
the time and traced passes for the rest, and reports the per-layer
metrics.  Details (stamp, seeds, job counts, output digests, failures,
span shares) go to ``perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 120
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
MAX_LISTED_FAILURES = 50
PROBE_PERIOD_S = 0.02
PROBE_WINDOW_S = 0.1
REFERENCE_CHUNK_S = 4e-4  # time of one reference chunk at the reference speed


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no package source, set-up failed)."""


def _import_package():
    package = SRC / "poincount" / "__init__.py"
    if not package.is_file():
        raise BenchmarkError(f"no package source at {package}")
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(SRC))
    import poincount

    if Path(poincount.__file__).resolve() != package.resolve():
        raise BenchmarkError(f"imported poincount from {poincount.__file__}, not {package}")
    return poincount


def _load_jobs(workload: str, size: str):
    """The workload module, after checking the names given on the command line."""
    _import_package()
    from perfbench import jobs

    if workload not in jobs.WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload!r}; known: {', '.join(jobs.WORKLOADS)}")
    if size not in jobs.SIZES:
        raise BenchmarkError(f"unknown size {size!r}; known: {', '.join(jobs.SIZES)}")
    return jobs


def _cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _stamp() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def _reference_chunk() -> Fraction:
    """Fixed stdlib-only work in the mix poincount spends its time on:
    Fraction arithmetic and small dict updates."""
    acc, counts = Fraction(0), {}
    for i in range(1, 60):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        counts[i % 17] = counts.get(i % 17, 0) + i * i
    return acc


class SpeedProbe:
    """Times a reference chunk on a side thread every PROBE_PERIOD_S.

    On a shared virtual machine the host's speed can drift by 1.6x over
    minutes, much the same for any code, so raw times of one run differ
    from another's by more than any useful bound.  Dividing a job's time by the probe's slowdown around it
    (median chunk time over REFERENCE_CHUNK_S) gives its time at the
    reference speed.  The probe runs about 2.5% of the time.
    """

    def __init__(self):
        self.samples: list = []  # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._sample()  # so that no window is ever empty
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            self._sample()

    def _sample(self) -> None:
        start = time.perf_counter()
        _reference_chunk()
        self.samples.append((start, time.perf_counter() - start))

    def slowdown(self, start: float, end: float) -> float:
        """Median chunk time within PROBE_WINDOW_S of [start, end], over the
        reference chunk time; read it after the probe has stopped."""
        lo = bisect.bisect_left(self.samples, (start - PROBE_WINDOW_S,))
        hi = bisect.bisect_right(self.samples, (end + PROBE_WINDOW_S,))
        window = self.samples[lo:hi] or self.samples
        return statistics.median(d for _, d in window) / REFERENCE_CHUNK_S

    def at_reference(self, spans: list) -> list:
        """Durations of (start, end) spans rescaled to the reference speed."""
        return [(end - start) / self.slowdown(start, end) for start, end in spans]


def measure_setup(workload: str, seed: int, size: str, samples: int = SETUP_SAMPLES) -> list:
    """(start, end) of fresh processes that import poincount and build the
    workload's inputs (scenarios, catalog closed forms, argv lists)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed), "--size", size]
    spans = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
        spans.append((start, time.perf_counter()))
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up process failed: {proc.stderr.strip()[-300:]}")
    return spans


class Runner:
    """Runs passes over one workload's job list and checks every output."""

    def __init__(self, workload, run_job):
        self.workload = workload
        self.run_job = run_job
        self.walls: list = []
        self.cpus: list = []
        self.job_spans: list = []  # (start, end) of every job run
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def run_pass(self, tracer=None) -> float:
        outputs = []
        pass_no = len(self.walls)
        wall0, cpu0 = time.perf_counter(), _cpu_seconds()
        for job in self.workload.jobs:
            if tracer is not None:
                tracer.start_job(f"{pass_no}:{job.name}")
            start = time.perf_counter()
            try:
                result = self.run_job(job)
            except Exception as exc:  # a crashing job is a failed job, not a crashed run
                result = (-1, f"{type(exc).__name__}: {exc}")
            finally:
                if tracer is not None:
                    tracer.exit()
            self.job_spans.append((start, time.perf_counter()))
            outputs.append(result)
        wall = time.perf_counter() - wall0
        self.cpus.append(_cpu_seconds() - cpu0)
        self.walls.append(wall)
        self._check(pass_no, outputs)
        return wall

    def _check(self, pass_no: int, outputs: list) -> None:
        for job, (code, out) in zip(self.workload.jobs, outputs):
            self.attempted += 1
            try:
                reason = job.check(code, out)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                reason = f"malformed output: {type(exc).__name__}: {exc}"
            digest = hashlib.sha256(out.encode()).hexdigest()
            first = self.digests.setdefault(job.name, digest)
            if reason is None and digest != first:
                reason = "stdout bytes differ from the first pass"
            if reason is not None:
                self._fail(pass_no, job.name, reason)
        if self.workload.pass_check is not None:
            reason = self.workload.pass_check(outputs)
            if reason is not None:
                self._fail(pass_no, "(whole pass)", reason)

    def _fail(self, pass_no: int, job: str, reason: str) -> None:
        self.failed = min(self.failed + 1, self.attempted)
        if len(self.failures) < MAX_LISTED_FAILURES:
            self.failures.append({"pass": pass_no, "job": job, "reason": reason})

    def run_until(self, deadline: float, tracer=None) -> int:
        """Passes until the deadline (perf_counter time), at least one."""
        passes = 0
        while passes == 0 or time.perf_counter() < deadline:
            self.run_pass(tracer)
            passes += 1
        return passes

    def per_pass(self, job_values: list) -> list:
        """Sums of per-job values, one per pass."""
        n = len(self.workload.jobs)
        return [sum(job_values[p * n:(p + 1) * n]) for p in range(len(self.walls))]

    def per_job(self, job_values: list) -> list:
        """Each job's median over the passes.  Quantiles of these do not flip
        between two jobs of different size as the number of passes changes."""
        n = len(self.workload.jobs)
        return [statistics.median(job_values[j::n]) for j in range(n)]

    def combined_digest(self) -> str:
        joined = "".join(f"{name}={d}\n" for name, d in self.digests.items())
        return hashlib.sha256(joined.encode()).hexdigest()


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the final-line object plus the details."""
    jobs = _load_jobs(workload_name, size)
    from perfbench import tracer as tracing

    workload = jobs.build(workload_name, seed, size)
    runner = Runner(workload, jobs.run_job)
    details: dict = {}
    if not trace:
        with SpeedProbe() as probe:
            setup = measure_setup(workload_name, seed, size)
            runner.run_until(time.perf_counter() + seconds)
        metrics = _end_to_end(runner, setup, probe, details)
    else:
        tracer = tracing.Tracer()
        with SpeedProbe() as probe:
            start = time.perf_counter()
            untraced = runner.run_until(start + seconds / 2)
            patches = tracing.Patches(tracer)
            try:
                traced_start = time.perf_counter()
                traced = runner.run_until(start + seconds, tracer)
                traced_wall_ns = int((time.perf_counter() - traced_start) * 1e9)
            finally:
                patches.restore()
        ref_walls = runner.per_pass(probe.at_reference(runner.job_spans))
        overhead = statistics.median(ref_walls[untraced:]) - statistics.median(ref_walls[:untraced])
        metrics = tracing.per_layer(tracer, traced, overhead)
        RESULTS.mkdir(parents=True, exist_ok=True)
        span_file = RESULTS / f"{workload_name}-seed{seed}.spans.jsonl"
        tracer.write_spans(span_file)
        details["trace"] = {
            "untraced_passes": untraced,
            "traced_passes": traced,
            "bound_in": patches.bound_in,
            "absent": patches.absent,
            "span_file": str(span_file.relative_to(ROOT)),
            "spans": len(tracer.spans),
            "span_shares": tracing.span_shares(tracer, traced_wall_ns)[:12],
            "sequences": tracing.sequence_facts(tracer),
        }

    final = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details.update({
        "stamp": _stamp(),
        "workload": workload_name,
        "size": size,
        "seed": seed,
        "seed_use": workload.seed_note,
        "derived_seeds": workload.seeds,
        "seconds": seconds,
        "jobs_per_pass": len(workload.jobs),
        "job_counts": Counter(job.kind for job in workload.jobs),
        "passes": len(runner.walls),
        "pass_wall_s": runner.walls,
        "fail_ratio": runner.failed / runner.attempted,
        "failures": runner.failures,
        "digests": runner.digests,
        "digest": runner.combined_digest(),
    })
    return {"final": final, "details": details}


def _end_to_end(runner: Runner, setup: list, probe: SpeedProbe, details: dict) -> dict:
    """End-to-end metrics at the reference speed; raw values go to details."""
    raw_jobs = [end - start for start, end in runner.job_spans]
    ref_jobs = probe.at_reference(runner.job_spans)
    ref_walls = runner.per_pass(ref_jobs)
    ref_cpus = [cpu * ref / raw for cpu, ref, raw
                in zip(runner.cpus, ref_walls, runner.per_pass(raw_jobs))]
    job_times = runner.per_job(ref_jobs)
    details["job_s.samples"] = {"jobs": len(job_times), "passes": len(runner.walls)}
    details["job_s.p90"] = (
        statistics.quantiles(job_times, n=10)[8] if len(job_times) >= P90_MIN_SAMPLES else None
    )
    details["raw"] = {
        "setup_s": statistics.median(end - start for start, end in setup),
        "wall_s": statistics.median(runner.walls),
        "cpu_s": statistics.median(runner.cpus),
        "job_s.p50": statistics.median(runner.per_job(raw_jobs)),
    }
    details["probe"] = {
        "samples": len(probe.samples),
        "slowdown": statistics.median(d for _, d in probe.samples) / REFERENCE_CHUNK_S,
    }
    return {
        "setup_s": (statistics.median(probe.at_reference(setup)), "s"),
        "wall_s": (statistics.median(ref_walls), "s"),
        "cpu_s": (statistics.median(ref_cpus), "s"),
        "job_s.p50": (statistics.median(job_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", help="full, or tiny for a smoke run")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            _load_jobs(args.workload, args.size).build(args.workload, args.seed, args.size)
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    details = result["details"]
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**details, **result["final"]}, indent=2) + "\n")
    print(f"perfbench: {args.workload} seed={args.seed} passes={details['passes']} "
          f"jobs/pass={details['jobs_per_pass']} fail_ratio={details['fail_ratio']} "
          f"digest={details['digest'][:16]} details={path.relative_to(ROOT)}")
    print(json.dumps(result["final"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
