"""The check-latency gate: ``repro check --strict src`` under five
seconds.

CI and pre-commit run every rule in one invocation over one shared
:class:`ParseCache`, so timing that run bounds the whole catalog.
Best-of-three so a scheduler hiccup on a shared CI box does not fail
the gate.
"""

import time
from pathlib import Path

from benchmarks.conftest import print_rows
from repro.checks.lint import check_paths, iter_python_files

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
MAX_ALL_SECONDS = 5.0


def run_check() -> list:
    """What ``repro check --strict src`` executes."""
    return check_paths([SRC], strict=True)


def best_of(repeats: int, run) -> tuple:
    best = float("inf")
    findings = None
    for _ in range(repeats):
        start = time.perf_counter()
        findings = run()
        best = min(best, time.perf_counter() - start)
    return best, findings


def test_check_strict_src_under_5s(benchmark):
    best_s, findings = benchmark.pedantic(
        lambda: best_of(3, run_check), rounds=1, iterations=1)
    files = sum(1 for _ in iter_python_files([SRC]))
    print_rows("repro check --strict src (best of 3)", [
        {"files": files, "best_s": round(best_s, 3),
         "budget_s": MAX_ALL_SECONDS, "findings": len(findings)}])
    assert best_s < MAX_ALL_SECONDS, (
        f"repro check --strict took {best_s:.2f}s on the src tree "
        f"(budget {MAX_ALL_SECONDS}s)")
    assert findings == []
