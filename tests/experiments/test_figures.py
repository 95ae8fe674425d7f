"""Figures module: env knobs, caching, row shapes (with stubbed runs)."""

import pytest

from repro.experiments import figures
from repro.experiments.harness import CaseResult


def fake_result(scenario, system, outcome="tp"):
    return CaseResult(
        scenario=scenario, case_id=0, system=system, outcome=outcome,
        processing_bytes=10_000, bandwidth_bytes=12_000,
        poll_packets=3, notify_packets=1, report_count=5, triggers=4,
        collective_completed=True, collective_time_ns=1e6,
        wall_seconds=0.01, detected_flow_count=1, injected_flow_count=1)


@pytest.fixture
def stubbed_matrix(monkeypatch):
    calls = []

    def fake_run_matrix(cases, systems, max_workers=0, cache=None):
        calls.append((len(cases), tuple(systems)))
        return [fake_result(case.scenario, system)
                for case in cases for system in systems]

    monkeypatch.setattr(figures, "run_matrix_parallel", fake_run_matrix)
    figures._matrix_cache.clear()
    yield calls
    figures._matrix_cache.clear()


def test_env_cases_default(monkeypatch):
    monkeypatch.delenv("REPRO_CASES", raising=False)
    assert figures.env_cases(5) == 5


def test_env_cases_override(monkeypatch):
    monkeypatch.setenv("REPRO_CASES", "17")
    assert figures.env_cases(5) == 17


def test_env_scale_override(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert figures.env_scale() == 0.5


def test_fig9_and_fig10_share_one_matrix(stubbed_matrix):
    figures.fig9_precision_recall(cases_per_scenario=2)
    figures.fig10_overhead(cases_per_scenario=2)
    # 4 scenarios ran once each; fig10 reused the cache
    assert len(stubbed_matrix) == 4


def test_fig9_rows_shape(stubbed_matrix):
    rows = figures.fig9_precision_recall(cases_per_scenario=2)
    assert len(rows) == 4 * 4  # scenarios x systems
    for row in rows:
        assert set(row) >= {"scenario", "system", "precision",
                            "recall", "tp", "fp", "fn"}
        assert row["precision"] == 1.0  # all stubbed as tp


def test_fig10_rows_shape(stubbed_matrix):
    rows = figures.fig10_overhead(cases_per_scenario=2)
    for row in rows:
        assert row["processing_kb"] == 10.0
        assert row["bandwidth_kb"] == 12.0


def test_different_params_rerun_matrix(stubbed_matrix):
    figures.fig9_precision_recall(cases_per_scenario=1)
    figures.fig9_precision_recall(cases_per_scenario=2)
    assert len(stubbed_matrix) == 8  # two distinct cache keys


def test_scenario_config_uses_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.02")
    config = figures.scenario_config()
    assert config.scale == 0.02


@pytest.mark.slow
def test_fig11_rows_real():
    rows = figures.fig11_host_overhead(message_bytes=400_000, repeats=1)
    assert [r["monitor"] for r in rows] == ["disabled", "enabled"]
    assert "cpu_overhead_pct" in rows[1]


def test_fig9_matrix_replays_from_env_cache(tmp_path, monkeypatch):
    """``REPRO_CACHE_DIR`` reaches the figure entry points: a second
    pass over the same matrix is all cache hits and simulates
    nothing."""
    from repro.experiments import runner

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "figcache"))
    caches = []

    def recorded_cache():
        caches.append(runner.cache_from_env())
        return caches[-1]

    monkeypatch.setattr(figures, "cache_from_env", recorded_cache)

    def matrix():
        figures._matrix_cache.clear()
        return figures.fig9_fig10_matrix(
            cases_per_scenario=1, scale=0.002, systems=("vedrfolnir",),
            scenarios=("flow_contention",))

    try:
        cold = matrix()

        def no_simulation(*args, **kwargs):
            raise AssertionError("the warm pass simulated a case")

        monkeypatch.setattr(runner, "run_case", no_simulation)
        warm = matrix()
    finally:
        figures._matrix_cache.clear()
    assert [r.outcome for r in warm] == [r.outcome for r in cold]
    assert [c.root for c in caches] == [tmp_path / "figcache"] * 2
    assert (caches[0].hits, caches[0].misses) == (0, 1)
    assert (caches[1].hits, caches[1].misses) == (1, 0)
