"""The check-latency gate: ``repro check --strict --all`` on the src
tree under five seconds.

CI and pre-commit run every rule family through one shared
:class:`ParseCache` and one project table, so timing that one run
bounds each pass on its own too.  Best-of-three so a scheduler hiccup
on a shared CI box does not fail the gate.
"""

import time
from pathlib import Path

from benchmarks.conftest import print_rows
from repro.checks.concurrency import check_concurrency
from repro.checks.ir import ParseCache, build_project
from repro.checks.lifecycle import check_lifecycle
from repro.checks.lint import check_paths, iter_python_files
from repro.checks.units import check_units

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
MAX_ALL_SECONDS = 5.0


def run_all_passes() -> list:
    """What ``repro check --strict --all src`` executes."""
    cache = ParseCache()
    project = build_project([SRC], cache=cache)
    findings = check_paths([SRC], strict=True, cache=cache)
    findings += check_units([SRC], strict=True, cache=cache,
                            project=project)
    findings += check_concurrency([SRC], strict=True, cache=cache,
                                  project=project)
    findings += check_lifecycle([SRC], strict=True, cache=cache,
                                project=project)
    return findings


def best_of(repeats: int, run) -> tuple:
    best = float("inf")
    findings = None
    for _ in range(repeats):
        start = time.perf_counter()
        findings = run()
        best = min(best, time.perf_counter() - start)
    return best, findings


def test_all_passes_shared_ir_under_5s(benchmark):
    best_s, findings = benchmark.pedantic(
        lambda: best_of(3, run_all_passes), rounds=1, iterations=1)
    files = sum(1 for _ in iter_python_files([SRC]))
    print_rows("All passes via shared IR (src tree, best of 3)", [
        {"files": files, "best_s": round(best_s, 3),
         "budget_s": MAX_ALL_SECONDS, "findings": len(findings)}])
    assert best_s < MAX_ALL_SECONDS, (
        f"combined --all run took {best_s:.2f}s on the src tree "
        f"(budget {MAX_ALL_SECONDS}s)")
    assert findings == []
