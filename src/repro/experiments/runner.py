"""Parallel experiment runner with a content-addressed result cache.

:func:`repro.experiments.harness.run_case` is pure given its inputs:
the simulation is deterministic, every random draw is derived from the
case's stable seed, and the measured overheads depend only on the
scenario configuration and the diagnosis system.  That purity licenses
two optimisations the figure benchmarks (Figs. 9-14) build on:

* **process-pool fan-out** — cases x systems are independent, so the
  matrix runs across a :class:`concurrent.futures.ProcessPoolExecutor`
  (workers rebuild the case from its primitive coordinates; nothing
  heavier than a dict crosses the process boundary);
* **content-addressed caching** — each result is stored on disk under
  the SHA-256 of everything that determines it (scenario, case id,
  system, the full scenario + network configuration, and the trace
  schema version).  A warm cache turns a figure regeneration into a
  directory scan.

Cache keys deliberately hash *values*, not factory identities: two
``ScenarioConfig``s whose ``network_config_factory``s produce equal
``NetworkConfig``s share cache entries, and any knob change produces a
new key (stale entries are simply never read again).

Environment knobs (respected by :mod:`repro.experiments.figures`):

* ``REPRO_CACHE_DIR`` — enable the on-disk cache rooted here;
* ``REPRO_WORKERS`` — process-pool size (unset/0 = run serially).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional, Sequence

from repro.anomalies.scenarios import (
    ScenarioCase,
    ScenarioConfig,
    make_cases,
)
from repro.baselines.adapter import DiagnosisSystemAdapter
from repro.experiments.harness import (
    CaseResult,
    DEFAULT_SYSTEMS,
    run_case,
)
from repro.simnet.network import NetworkConfig
from repro.traces.columnar import COLUMNAR_VERSION
from repro.traces.store import FORMAT_VERSION as TRACE_SCHEMA_VERSION

#: bump when CaseResult's serialised shape changes (invalidates cache)
RESULT_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# CaseResult <-> JSON
# ----------------------------------------------------------------------
def _json_safe(value):
    """True when ``value`` round-trips through JSON unchanged."""
    try:
        return json.loads(json.dumps(value)) == value
    except (TypeError, ValueError):
        return False


def result_to_dict(result: CaseResult) -> dict:
    """Serialise a result, dropping non-JSON extras (e.g. the live
    diagnosis object the Vedrfolnir adapter attaches).  Fields are
    copied shallowly — every non-extras field is a primitive, and
    recursing into extras would choke on diagnosis internals."""
    doc = {f.name: getattr(result, f.name)
           for f in dataclasses.fields(result) if f.name != "extras"}
    doc["extras"] = {k: v for k, v in result.extras.items()
                     if _json_safe(v)}
    return doc


def result_from_dict(doc: dict) -> CaseResult:
    return CaseResult(**doc)


# ----------------------------------------------------------------------
# content addressing
# ----------------------------------------------------------------------
def _fingerprint_default(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    return repr(value)


def config_fingerprint(config: ScenarioConfig) -> dict:
    """Every value in a ScenarioConfig that affects a run's outcome.

    The network-config *factory* is fingerprinted by the config it
    produces, so equal configurations share cache entries regardless of
    how they were constructed.
    """
    return {
        "scale": config.scale,
        "num_collective_nodes": config.num_collective_nodes,
        "fat_tree_k": config.fat_tree_k,
        "base_seed": config.base_seed,
        "network": dataclasses.asdict(config.network_config_factory()),
    }


def case_cache_key(case: ScenarioCase, system_name: str,
                   key_extra: Optional[dict] = None) -> str:
    """SHA-256 over everything that determines the case's result."""
    doc = {
        "trace_schema": TRACE_SCHEMA_VERSION,
        "columnar": COLUMNAR_VERSION,
        "result_schema": RESULT_SCHEMA_VERSION,
        "scenario": case.scenario,
        "case_id": case.case_id,
        "system": system_name,
        "nodes_override": case.nodes_override,
        "config": config_fingerprint(case.config),
        "extra": key_extra,
    }
    canonical = json.dumps(doc, sort_keys=True,
                           default=_fingerprint_default)
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Content-addressed on-disk store of serialised CaseResults.

    One JSON file per key, written atomically (temp file + rename) so a
    crashed run never leaves a torn entry for the next run to trust.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[CaseResult]:
        try:
            doc = json.loads(self._path(key).read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if doc.get("schema") != RESULT_SCHEMA_VERSION:
            self.misses += 1
            return None
        self.hits += 1
        return result_from_dict(doc["result"])

    def put(self, key: str, result: CaseResult) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        doc = {"schema": RESULT_SCHEMA_VERSION, "key": key,
               "result": result_to_dict(result)}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(doc, handle, indent=1)
                handle.write("\n")
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:  # best-effort tmp cleanup; the original error re-raises below
                pass
            raise

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))


# ----------------------------------------------------------------------
# process-pool fan-out
# ----------------------------------------------------------------------
def _case_spec(case: ScenarioCase, system_name: str) -> dict:
    """The primitive coordinates a worker rebuilds the case from."""
    return {
        "scenario": case.scenario,
        "case_id": case.case_id,
        "system": system_name,
        "scale": case.config.scale,
        "num_collective_nodes": case.config.num_collective_nodes,
        "fat_tree_k": case.config.fat_tree_k,
        "base_seed": case.config.base_seed,
    }


def _run_spec(spec: dict) -> dict:
    """Worker entry point: rebuild the case and run it.

    Module-level (picklable) and dict-in/dict-out, so the process pool
    ships only primitives.  ``make_cases`` reapplies scenario-specific
    node overrides, keeping worker-built cases identical to the
    parent's.
    """
    config = ScenarioConfig(
        scale=spec["scale"],
        num_collective_nodes=spec["num_collective_nodes"],
        fat_tree_k=spec["fat_tree_k"],
        base_seed=spec["base_seed"],
    )
    case = make_cases(spec["scenario"], spec["case_id"] + 1,
                      config)[spec["case_id"]]
    return result_to_dict(run_case(case, spec["system"]))


def _poolable(case: ScenarioCase) -> bool:
    """Only cases a worker can rebuild from primitives fan out; cases
    with a custom network-config factory run in the parent (still
    cached under their content hash)."""
    return case.config.network_config_factory is NetworkConfig


def cached_run_case(case: ScenarioCase, system_name: str,
                    system: Optional[DiagnosisSystemAdapter] = None,
                    cache: Optional[ResultCache] = None,
                    key_extra: Optional[dict] = None) -> CaseResult:
    """run_case with an optional cache in front.

    ``key_extra`` must capture any behaviour of a custom ``system``
    instance that the system name alone does not (e.g. the detection
    config an ablation sweeps); omitting it for a customised adapter
    would alias distinct runs onto one cache entry.
    """
    if cache is not None:
        key = case_cache_key(case, system_name, key_extra)
        hit = cache.get(key)
        if hit is not None:
            return hit
    result = run_case(case, system_name, system=system)
    if cache is not None:
        cache.put(key, result)
    return result


def run_matrix_parallel(cases: Sequence[ScenarioCase],
                        systems: tuple[str, ...] = DEFAULT_SYSTEMS,
                        max_workers: int = 0,
                        cache: Optional[ResultCache] = None
                        ) -> list[CaseResult]:
    """Every case under every system, optionally fanned out and cached.

    Returns results in the same case-major order as
    :func:`repro.experiments.harness.run_matrix`, whatever mix of cache
    hits, pool workers and in-parent runs produced them.
    """
    jobs = [(case, system) for case in cases for system in systems]
    results: list[Optional[CaseResult]] = [None] * len(jobs)
    keys: list[Optional[str]] = [None] * len(jobs)

    pending: list[int] = []
    for index, (case, system) in enumerate(jobs):
        if cache is not None:
            keys[index] = case_cache_key(case, system)
            hit = cache.get(keys[index])
            if hit is not None:
                results[index] = hit
                continue
        pending.append(index)

    pooled = [i for i in pending if _poolable(jobs[i][0])]
    if max_workers > 1 and len(pooled) > 1:
        specs = [_case_spec(*jobs[i]) for i in pooled]
        workers = min(max_workers, len(pooled))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, doc in zip(pooled, pool.map(_run_spec, specs)):
                results[index] = result_from_dict(doc)
    else:
        pooled = []

    for index in pending:
        if results[index] is None:
            case, system = jobs[index]
            results[index] = run_case(case, system)
        if cache is not None:
            cache.put(keys[index], results[index])

    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# environment plumbing (shared with figures and benchmarks)
# ----------------------------------------------------------------------
def cache_from_env() -> Optional[ResultCache]:
    """A ResultCache rooted at $REPRO_CACHE_DIR, or None when unset."""
    root = os.environ.get("REPRO_CACHE_DIR")
    return ResultCache(root) if root else None


def workers_from_env() -> int:
    """$REPRO_WORKERS as an int (0/unset = serial)."""
    try:
        return int(os.environ.get("REPRO_WORKERS", "0"))
    except ValueError:
        return 0
