"""The parallel runner and its content-addressed result cache."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.anomalies.scenarios import ScenarioConfig, make_cases
from repro.core.analyzer import SLOWDOWN_FACTOR
from repro.experiments.harness import CaseResult, run_matrix
from repro.experiments.runner import (
    RESULT_SCHEMA_VERSION,
    ResultCache,
    cache_from_env,
    cached_run_case,
    case_cache_key,
    config_fingerprint,
    result_from_dict,
    result_to_dict,
    run_matrix_parallel,
    workers_from_env,
)

#: tiny but non-degenerate workload for runner tests
TINY = ScenarioConfig(scale=0.001)


def _strip_wall(result: CaseResult) -> dict:
    doc = result_to_dict(result)
    doc.pop("wall_seconds")
    return doc


# ----------------------------------------------------------------------
# content addressing
# ----------------------------------------------------------------------
def test_cache_key_is_stable_across_processes():
    case = make_cases("flow_contention", 1, TINY)[0]
    # rebuild everything from scratch: equal content => equal key
    rebuilt = make_cases("flow_contention", 1, ScenarioConfig(scale=0.001))[0]
    assert case_cache_key(case, "vedrfolnir") \
        == case_cache_key(rebuilt, "vedrfolnir")


@pytest.mark.parametrize("mutate", [
    lambda c: make_cases("incast", 1, TINY)[0],
    lambda c: make_cases("flow_contention", 2, TINY)[1],
    lambda c: make_cases("flow_contention", 1,
                         ScenarioConfig(scale=0.002))[0],
    lambda c: make_cases("flow_contention", 1,
                         ScenarioConfig(scale=0.001, base_seed=7))[0],
    lambda c: make_cases("flow_contention", 1,
                         ScenarioConfig(scale=0.001, fat_tree_k=6))[0],
])
def test_cache_key_changes_with_any_input(mutate):
    base = make_cases("flow_contention", 1, TINY)[0]
    other = mutate(base)
    assert case_cache_key(base, "vedrfolnir") \
        != case_cache_key(other, "vedrfolnir")


def test_cache_key_separates_systems_and_extras():
    case = make_cases("flow_contention", 1, TINY)[0]
    base = case_cache_key(case, "vedrfolnir")
    assert base != case_cache_key(case, "hawkeye-maxr")
    assert base != case_cache_key(case, "vedrfolnir",
                                  key_extra={"rtt_threshold_factor": 1.2})


def test_fingerprint_hashes_network_config_values():
    from repro.simnet.network import NetworkConfig

    fingerprint = config_fingerprint(TINY)
    assert fingerprint["network"] == dataclasses.asdict(NetworkConfig())
    assert fingerprint["network"]["pfc_xoff_bytes"] == 256_000
    # equal configs share a fingerprint; any knob separates them
    assert config_fingerprint(ScenarioConfig(scale=0.001)) == fingerprint
    assert config_fingerprint(ScenarioConfig(scale=0.001,
                                             fat_tree_k=6)) != fingerprint


def test_fingerprint_names_every_simnet_constant():
    """The figure benches replay cached results: the key covers every
    number a module of the simulator, collective, anomaly, diagnosis
    or baseline package defines at module level under an UPPER_CASE
    name, each by ``module.NAME`` with its value."""
    import ast
    import importlib

    import repro

    fingerprint = config_fingerprint(TINY)["constants"]
    defined = {}
    for package in ("simnet", "collective", "anomalies", "core",
                    "baselines"):
        root = Path(repro.__file__).parent / package
        for path in sorted(root.glob("*.py")):
            module = importlib.import_module(
                f"repro.{package}.{path.stem}")
            for node in ast.parse(path.read_text()).body:
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target] if isinstance(node, ast.AnnAssign) \
                    else []
                for name in (t.id for t in targets
                             if isinstance(t, ast.Name)):
                    value = getattr(module, name)
                    if name.isupper() and type(value) in (int, float):
                        defined[package] = defined.get(package, 0) + 1
                        assert fingerprint[
                            f"{module.__name__}.{name}"] == value
    assert defined["simnet"] >= 24
    # the diagnosis decides Figs. 9-13 as much as the simulator does
    assert fingerprint["repro.core.analyzer.SLOWDOWN_FACTOR"] \
        == SLOWDOWN_FACTOR
    assert "repro.baselines.hawkeye.RTT_THRESHOLD_FACTOR" in fingerprint
    assert "repro.baselines.full_polling.POLL_INTERVAL_NS" in fingerprint
    assert "repro.anomalies.scenarios.PAPER_CHUNK_BYTES" in fingerprint
    assert fingerprint["repro.simnet.pfc.PAUSE_QUANTA_NS"] == 300_000
    assert fingerprint["repro.simnet.telemetry.WINDOW_NS"] == 1_000_000
    assert fingerprint["repro.simnet.packet.HEADER_BYTES"] == 66


# ----------------------------------------------------------------------
# serialisation
# ----------------------------------------------------------------------
def test_result_roundtrip_drops_non_json_extras():
    result = CaseResult(
        scenario="flow_contention", case_id=0, system="vedrfolnir",
        outcome="tp", processing_bytes=1, bandwidth_bytes=2,
        poll_packets=3, notify_packets=4, report_count=5, triggers=6,
        collective_completed=True, collective_time_ns=7.5,
        wall_seconds=0.1, detected_flow_count=1, injected_flow_count=1,
        extras={"rounds": 3, "diagnosis": object()})
    doc = result_to_dict(result)
    json.dumps(doc)  # must be JSON-serialisable as-is
    assert doc["extras"] == {"rounds": 3}
    restored = result_from_dict(doc)
    for field in dataclasses.fields(CaseResult):
        if field.name == "extras":
            continue
        assert getattr(restored, field.name) == getattr(result, field.name)


# ----------------------------------------------------------------------
# the cache itself
# ----------------------------------------------------------------------
class CountingCache(ResultCache):
    """A result cache that counts its own hits and misses."""

    hits = misses = 0

    def get(self, key: str):
        result = super().get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result


def test_cache_miss_then_hit_roundtrip(tmp_path):
    cache = CountingCache(tmp_path / "cache")
    case = make_cases("flow_contention", 1, TINY)[0]
    first = cached_run_case(case, "vedrfolnir", cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    second = cached_run_case(case, "vedrfolnir", cache=cache)
    assert (cache.hits, cache.misses) == (1, 1)
    assert len(cache) == 1
    # the replay is the recorded result, wall time included
    assert result_to_dict(second) == result_to_dict(first)


def test_cache_rejects_schema_mismatch(tmp_path):
    cache = ResultCache(tmp_path)
    case = make_cases("flow_contention", 1, TINY)[0]
    key = case_cache_key(case, "vedrfolnir")
    cached_run_case(case, "vedrfolnir", cache=cache)
    path = cache._path(key)
    doc = json.loads(path.read_text())
    doc["schema"] = RESULT_SCHEMA_VERSION + 1
    path.write_text(json.dumps(doc))
    assert cache.get(key) is None


def test_cache_ignores_torn_entries(tmp_path):
    cache = CountingCache(tmp_path)
    key = "0" * 64
    cache._path(key).parent.mkdir(parents=True, exist_ok=True)
    cache._path(key).write_text('{"schema": 1, "result": {"scena')
    assert cache.get(key) is None
    assert cache.misses == 1


# ----------------------------------------------------------------------
# fan-out
# ----------------------------------------------------------------------
def test_parallel_matrix_matches_serial():
    cases = make_cases("flow_contention", 2, TINY)
    systems = ("vedrfolnir",)
    serial = run_matrix(list(cases), systems)
    parallel = run_matrix_parallel(cases, systems, max_workers=2)
    assert [_strip_wall(r) for r in parallel] \
        == [_strip_wall(r) for r in serial]


def test_parallel_matrix_populates_and_replays_cache(tmp_path):
    cases = make_cases("flow_contention", 2, TINY)
    systems = ("vedrfolnir",)
    cache = CountingCache(tmp_path)
    cold = run_matrix_parallel(cases, systems, max_workers=2, cache=cache)
    assert cache.misses == 2 and cache.hits == 0
    warm = run_matrix_parallel(cases, systems, max_workers=2, cache=cache)
    assert cache.hits == 2
    assert [result_to_dict(r) for r in warm] \
        == [result_to_dict(r) for r in cold]


# ----------------------------------------------------------------------
# environment plumbing
# ----------------------------------------------------------------------
def test_env_knobs(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert cache_from_env() is None
    assert workers_from_env() == 0
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_WORKERS", "3")
    cache = cache_from_env()
    assert cache is not None and cache.root == tmp_path
    assert workers_from_env() == 3
    monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
    assert workers_from_env() == 0
