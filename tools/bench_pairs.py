"""Paired parent/change benchmark runs, written to one BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REV --out BENCH_10.json \\
        [--workload W ...] [--pairs 10] [--seed 501]

The parent is exported with ``git archive REV`` into a temporary directory;
the change is this checkout's working tree.  Each side keeps its bytecode
cache in its own fresh directory there (PYTHONPYCACHEPREFIX, written even
under PYTHONDONTWRITEBYTECODE), so a cache left in the working tree by a
test run warms neither side and both sides warm alike.  Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
each tree, one process at a time, with T the ``run_seconds`` of
BENCHMARK.json, the same seed on both sides (the first seed is --seed,
then one more per pair) and the order alternating from pair to pair
(parent first in even pairs), so a drift of the host's speed falls on
both sides alike.  Every run is started by one small launcher process,
itself started before the parent's archive is read, so that each run's
peak_rss_mb is its own and not this harness's (Launcher).  Every workload gets --pairs pairs (at least 10, the
fewest that can back a claim); without --workload, every workload of
BENCHMARK.json is run.

The output holds, per workload and end-to-end metric of BENCHMARK.json,
the medians of both sides, their relative change, the metric's bound, the
parent's interquartile range and the number of pairs the change won
(better by the metric's own direction); the runs' failure counts, and
per side the seeds whose run failed any operation; the per-job stdout
digests of both sides per seed, with whether they are equal; and the
machine stamp perfbench records.  The closing summary prints one line
per workload and end-to-end metric, flagged when the change's median is
worse, and louder when it is worse by more than the bound; under a
workload it names each side's seeds with failed operations, whose
medians mix in passes that did not finish.  The exit code is 1 when on some workload the digests differ or
the change fails more operations than the parent, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(rev: str, into: Path) -> str:
    """Write the files of commit `rev` into `into`; return its full hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit


#: The launcher's loop: one JSON request [argv, cwd, env] per input line,
#: one JSON reply [returncode, stdout, stderr] per output line.
_LAUNCHER = """
import json, subprocess, sys
for line in sys.stdin:
    argv, cwd, env = json.loads(line)
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    print(json.dumps([done.returncode, done.stdout, done.stderr]), flush=True)
"""


class Launcher:
    """A small process that starts commands on request, one at a time.

    perfbench reads its peak_rss_mb from getrusage's ru_maxrss, and on
    Linux a child started by subprocess keeps the high-water RSS of the
    process it was started from across exec.  Started from this harness,
    which holds the parent's archive in memory, every run would read the
    harness's peak instead of its own; started from the launcher, whose
    own peak is a bare interpreter's, it reads its own.
    """

    def __init__(self):
        self._process = subprocess.Popen(
            [sys.executable, "-c", _LAUNCHER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list, cwd: Path, env: dict) -> subprocess.CompletedProcess:
        """Run argv in cwd with env to its end, capturing its output."""
        self._process.stdin.write(json.dumps([argv, str(cwd), env]) + "\n")
        self._process.stdin.flush()
        code, out, err = json.loads(self._process.stdout.readline())
        return subprocess.CompletedProcess(argv, code, out, err)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._process.stdin.close()
        self._process.wait()


def bench(
    launcher: Launcher, tree: Path, cache: Path, workload: str, seed: int, seconds: float
) -> dict:
    """One untraced perfbench run in `tree`, started by `launcher`, with
    its bytecode cache in `cache` (PYTHONPYCACHEPREFIX, which its
    subprocesses inherit): its final line and details."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(cache)}
    # written, so the cache warms as in plain use instead of every import
    # (the standard library's too) compiling from source
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = launcher.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        tree, env,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: perfbench failed in {tree}: {done.stderr.strip()[-500:]}")
    final = json.loads(done.stdout.strip().splitlines()[-1])
    details_file = tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    details = json.loads(details_file.read_text())
    return {
        "metrics": {name: m["value"] for name, m in final["metrics"].items()},
        "attempted": final["attempted"],
        "failed": final["failed"],
        "digests": details["digests"],
        "stamp": details["stamp"],
    }


def iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs: list, end_to_end: list) -> dict:
    """Medians, parent IQR, wins, failures and digests of one workload."""
    metrics = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [pair["parent"]["metrics"][name] for pair in runs]
        change = [pair["change"]["metrics"][name] for pair in runs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent_median": parent_median,
            "change_median": change_median,
            "relative_change": change_median / parent_median - 1 if parent_median else None,
            "parent_iqr": iqr(parent),
            "wins": wins,
            "parent": parent,
            "change": change,
        }
    return {
        "pairs": len(runs),
        "seeds": [pair["seed"] for pair in runs],
        "metrics": metrics,
        "failed": {side: sum(pair[side]["failed"] for pair in runs) for side in ("parent", "change")},
        "failed_seeds": {
            side: [pair["seed"] for pair in runs if pair[side]["failed"]]
            for side in ("parent", "change")
        },
        "attempted": {side: sum(pair[side]["attempted"] for pair in runs) for side in ("parent", "change")},
        "digests_equal": all(pair["parent"]["digests"] == pair["change"]["digests"] for pair in runs),
        "digests": {
            str(pair["seed"]): {side: pair[side]["digests"] for side in ("parent", "change")}
            for pair in runs
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, type=Path, help="output file, e.g. BENCH_10.json")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all of BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (at least 10)")
    parser.add_argument("--seed", type=int, default=501, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]

    out: dict = {
        "command": " ".join(["python3", "tools/bench_pairs.py", *(argv or sys.argv[1:])]),
        "seconds": seconds,
        "workloads": {},
    }
    # the launcher starts before the archive is read: see Launcher
    with Launcher() as launcher, tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree = Path(tmp) / "parent"
        # each side's own fresh bytecode cache: neither reads one left in its tree
        caches = {side: Path(tmp) / f"pycache-{side}" for side in ("parent", "change")}
        out["parent"] = export(args.parent, parent_tree)
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, check=True, capture_output=True, text=True,
        ).stdout.strip()
        out["change"] = f"working tree at {head}" + (" with uncommitted changes" if dirty else "")
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "order": list(order)}
                for side in order:
                    tree = parent_tree if side == "parent" else ROOT
                    pair[side] = bench(launcher, tree, caches[side], workload, seed, seconds)
                    print(f"bench_pairs: {workload} seed={seed} {side} "
                          f"wall_s={pair[side]['metrics']['wall_s']:.4f}", file=sys.stderr)
                runs.append(pair)
            stamp = runs[0]["change"]["stamp"]
            out.setdefault("machine", {k: v for k, v in stamp.items() if k != "git_commit"})
            out["workloads"][workload] = summarize(runs, end_to_end)
    path = args.out if args.out.is_absolute() else ROOT / args.out
    path.write_text(json.dumps(out, indent=2) + "\n")
    for workload, summary in out["workloads"].items():
        print(f"{workload}: {summary['pairs']} pairs, digests equal: {summary['digests_equal']}, "
              f"failed {summary['failed']['parent']} -> {summary['failed']['change']}")
        for side, seeds in summary["failed_seeds"].items():
            if seeds:
                print(f"  {side}: operations failed at seeds {', '.join(map(str, seeds))}")
        for name, m in summary["metrics"].items():
            print(f"  {summary_line(name, m, summary['pairs'])}")
    broken = [
        workload for workload, summary in out["workloads"].items()
        if not summary["digests_equal"] or summary["failed"]["change"] > summary["failed"]["parent"]
    ]
    if broken:
        print(f"bench_pairs: digests differ or more operations fail on {', '.join(broken)}",
              file=sys.stderr)
        return 1
    return 0


def summary_line(name: str, m: dict, pairs: int) -> str:
    """One metric's closing line: medians, relative change against the bound,
    pairs won, and a flag when the change's median is worse."""
    rel = m["relative_change"]
    worse = rel is not None and (rel > 0 if m["better"] == "lower" else rel < 0)
    flag = ""
    if worse:
        flag = "  WORSE, PAST THE BOUND" if abs(rel) > m["bound"] else "  worse"
    change = "n/a" if rel is None else f"{rel:+.1%}"
    return (f"{name}: {m['parent_median']:.4f} -> {m['change_median']:.4f} {m['unit']} "
            f"({change}, bound {m['bound']:.0%}), won {m['wins']}/{pairs}{flag}")


if __name__ == "__main__":
    sys.exit(main())
