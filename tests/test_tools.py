import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest


def _bench_pairs():
    """tools/bench_pairs.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(wall_s, failed, digests):
    return {"metrics": {"wall_s": wall_s}, "attempted": 10, "failed": failed, "digests": digests}


def test_summarize_names_the_seeds_with_failed_operations():
    # a side's seeds whose run failed any operation are listed apart from
    # the totals, in seed order; nothing else of the summary changes
    runs = [
        {"seed": seed, "parent": _run(p, pf, {"a": "x"}), "change": _run(c, cf, {"a": "x"})}
        for seed, p, pf, c, cf in (
            (911, 1.0, 0, 0.9, 0),
            (912, 2.0, 5, 1.1, 0),
            (913, 1.2, 1, 1.0, 2),
            (914, 1.1, 0, 1.0, 0),
        )
    ]
    spec = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]
    summary = _bench_pairs().summarize(runs, spec)
    assert summary["failed_seeds"] == {"parent": [912, 913], "change": [913]}
    assert summary["failed"] == {"parent": 6, "change": 2}
    assert summary["attempted"] == {"parent": 40, "change": 40}
    assert summary["seeds"] == [911, 912, 913, 914] and summary["digests_equal"]
    wall = summary["metrics"]["wall_s"]
    assert (wall["parent_median"], wall["change_median"], wall["wins"]) == (1.15, 1.0, 4)
    clean = [dict(run, parent=_run(1.0, 0, {}), change=_run(1.0, 0, {})) for run in runs]
    assert _bench_pairs().summarize(clean, spec)["failed_seeds"] == {"parent": [], "change": []}


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read in KiB, as on Linux")
def test_a_launched_run_reports_its_own_peak_rss():
    # ru_maxrss, which perfbench reports as peak_rss_mb, is inherited
    # across exec from the process a child is started from: after this
    # process holds 60 MB, a run started by the launcher still reads a
    # peak below that, while one started from here directly does not
    peak = [sys.executable, "-c",
            "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"]
    bench_pairs = _bench_pairs()
    held = b"\1" * (60 << 20)
    with bench_pairs.Launcher() as launcher:
        done = launcher.run(peak, Path.cwd(), dict(os.environ))
    assert done.returncode == 0 and len(held) == 60 << 20
    assert int(done.stdout) < 60 << 10  # KiB
    direct = subprocess.run(peak, capture_output=True, text=True, check=True)
    assert int(direct.stdout) >= 60 << 10


def test_the_package_imports_only_the_standard_library():
    # poincount is a stdlib-only calculator: every module src/poincount
    # imports is in the standard library, or the package itself (relative
    # imports included)
    imported = set()
    for path in sorted((Path(__file__).parents[1] / "src" / "poincount").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((path.name, node.module))
    outside = sorted(
        (name, module)
        for name, module in imported
        if module.partition(".")[0] not in sys.stdlib_module_names | {"poincount"}
    )
    assert imported and not outside, outside
