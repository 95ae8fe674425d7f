"""One entry point per paper figure (Figs. 9-14).

Each function returns plain row dicts (and the benchmarks print them),
so the same code drives pytest benchmarks, the EXPERIMENTS.md tables and
ad-hoc exploration.  Expensive scenario matrices are cached per-process
so Fig. 9 and Fig. 10 share one set of runs, exactly as in the paper.

Fidelity knobs (environment variables):

* ``REPRO_CASES`` — cases per scenario (default: the paper's 60/60/40/60,
  but the benchmarks pass small defaults; export e.g. ``REPRO_CASES=60``
  for full fidelity);
* ``REPRO_SCALE`` — size/time scale factor (default 0.005; 1.0 = the
  paper's actual 360 MB flows);
* ``REPRO_WORKERS`` — fan the scenario matrix across this many worker
  processes (0/unset = serial);
* ``REPRO_CACHE_DIR`` — content-addressed result cache directory; a
  warm cache makes figure regeneration skip re-simulation entirely
  (see :mod:`repro.experiments.runner`).
"""

from __future__ import annotations

import gc
import os
import time
import tracemalloc
from typing import Optional, Sequence

from repro.anomalies.scenarios import ScenarioConfig, make_cases, SCENARIOS
from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.core.detection import DetectionConfig
from repro.core.system import VedrfolnirConfig, VedrfolnirSystem
from repro.experiments.harness import (
    CaseResult,
    DEFAULT_SYSTEMS,
)
from repro.experiments.runner import (
    cache_from_env,
    cached_run_case,
    run_matrix_parallel,
    workers_from_env,
)
from repro.experiments.metrics import aggregate
from repro.simnet.network import Network
from repro.simnet.packet import FlowKey
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import GB, MB, ms

_matrix_cache: dict[tuple, list[CaseResult]] = {}


#: the scenario scale when ``REPRO_SCALE`` is unset
DEFAULT_SCALE = 0.005


def env_scale() -> float:
    return float(os.environ.get("REPRO_SCALE", DEFAULT_SCALE))


def env_cases(default: int) -> int:
    return int(os.environ.get("REPRO_CASES", default))


def scenario_config(scale: Optional[float] = None) -> ScenarioConfig:
    return ScenarioConfig(scale=scale if scale is not None else env_scale())


# ----------------------------------------------------------------------
# Figs. 9 & 10: accuracy and overhead vs. baselines
# ----------------------------------------------------------------------
def fig9_fig10_matrix(cases_per_scenario: int = 4,
                      scale: Optional[float] = None,
                      systems: Sequence[str] = DEFAULT_SYSTEMS
                      ) -> list[CaseResult]:
    """The shared scenario × system run matrix behind Figs. 9 and 10."""
    key = (cases_per_scenario, scale, tuple(systems))
    if key not in _matrix_cache:
        cfg = scenario_config(scale)
        cache = cache_from_env()
        workers = workers_from_env()
        results: list[CaseResult] = []
        for scenario in SCENARIOS:
            cases = make_cases(scenario, cases_per_scenario, cfg)
            results.extend(run_matrix_parallel(
                cases, tuple(systems), max_workers=workers, cache=cache))
        _matrix_cache[key] = results
    return _matrix_cache[key]


def fig9_precision_recall(cases_per_scenario: int = 4,
                          scale: Optional[float] = None,
                          systems: Sequence[str] = DEFAULT_SYSTEMS
                          ) -> list[dict]:
    """Fig. 9a/9b rows: precision & recall per scenario per system."""
    results = fig9_fig10_matrix(cases_per_scenario, scale, systems)
    rows = []
    for (scenario, system), m in aggregate(results).items():
        rows.append({
            "figure": "9",
            "scenario": scenario,
            "system": system,
            "precision": round(m.precision, 3),
            "recall": round(m.recall, 3),
            "tp": m.tp, "fp": m.fp, "fn": m.fn,
        })
    return rows


def fig10_overhead(cases_per_scenario: int = 4,
                   scale: Optional[float] = None,
                   systems: Sequence[str] = DEFAULT_SYSTEMS) -> list[dict]:
    """Fig. 10a/10b rows: processing and bandwidth overhead (KB)."""
    results = fig9_fig10_matrix(cases_per_scenario, scale, systems)
    rows = []
    for (scenario, system), m in aggregate(results).items():
        rows.append({
            "figure": "10",
            "scenario": scenario,
            "system": system,
            "processing_kb": round(m.avg_processing_kb, 1),
            "bandwidth_kb": round(m.avg_bandwidth_kb, 1),
            "avg_triggers": round(m.avg_triggers, 1),
            "avg_reports": round(m.avg_reports, 1),
        })
    return rows


# ----------------------------------------------------------------------
# Fig. 11: host-side monitor overhead (testbed substitute)
# ----------------------------------------------------------------------
def fig11_host_overhead(message_bytes: Optional[int] = None,
                        scale: Optional[float] = None,
                        nodes: int = 4, repeats: int = 3) -> list[dict]:
    """CPU time and peak memory of the 4-node AllGather run with the
    Vedrfolnir monitor enabled vs. disabled.

    Substitutes the paper's NCCL testbed (4 x H100): the measured
    quantity is the same — the *delta* the monitor adds to the host.
    """
    effective_scale = scale if scale is not None else env_scale()
    size = message_bytes if message_bytes is not None \
        else max(64_000, int(1 * GB * effective_scale))
    rows = []
    for monitored in (False, True):
        cpu_times, peaks, sim_times = [], [], []
        for _ in range(repeats):
            gc.collect()
            tracemalloc.start()
            start_cpu = time.process_time()
            network = Network(build_fat_tree(4))
            schedule = ring_allgather(
                [f"h{i}" for i in range(nodes)], size // nodes)
            runtime = CollectiveRuntime(network, schedule)
            system = VedrfolnirSystem(
                network, runtime,
                config=VedrfolnirConfig(monitoring_enabled=monitored))
            runtime.start()
            network.run_until_quiet(max_time=ms(10_000))
            if monitored:
                system.analyze()
            cpu_times.append(time.process_time() - start_cpu)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            peaks.append(peak)
            sim_times.append(runtime.total_time_ns or 0.0)
        rows.append({
            "figure": "11",
            "monitor": "enabled" if monitored else "disabled",
            "cpu_seconds": round(sum(cpu_times) / repeats, 4),
            "peak_memory_kb": round(sum(peaks) / repeats / 1000, 1),
            "collective_ms": round(sum(sim_times) / repeats / 1e6, 3),
        })
    base, mon = rows
    mon["cpu_overhead_pct"] = round(
        100 * (mon["cpu_seconds"] - base["cpu_seconds"])
        / max(base["cpu_seconds"], 1e-9), 1)
    mon["memory_overhead_pct"] = round(
        100 * (mon["peak_memory_kb"] - base["peak_memory_kb"])
        / max(base["peak_memory_kb"], 1e-9), 1)
    return rows


# ----------------------------------------------------------------------
# Fig. 12: RTT-threshold x detection-count sweep
# ----------------------------------------------------------------------
def fig12_param_sweep(cases_per_scenario: int = 3,
                      scale: Optional[float] = None,
                      rtt_factors: Sequence[float] = (1.2, 1.8, 2.4),
                      detection_counts: Sequence[int] = (1, 3, 5),
                      scenarios: Sequence[str] = SCENARIOS) -> list[dict]:
    """Precision & recall of Vedrfolnir per scenario under each
    (RTT threshold %, detections per step) combination."""
    from repro.baselines.vedrfolnir_adapter import VedrfolnirAdapter

    cfg = scenario_config(scale)
    cache = cache_from_env()
    rows = []
    for scenario in scenarios:
        cases = make_cases(scenario, cases_per_scenario, cfg)
        for factor in rtt_factors:
            for count in detection_counts:
                results = []
                for case in cases:
                    adapter = VedrfolnirAdapter(VedrfolnirConfig(
                        detection=DetectionConfig(
                            rtt_threshold_factor=factor,
                            detections_per_step=count)))
                    results.append(cached_run_case(
                        case, "vedrfolnir", system=adapter, cache=cache,
                        key_extra={"fig": "12",
                                   "rtt_threshold_factor": factor,
                                   "detections_per_step": count}))
                m = aggregate(results)[(scenario, "vedrfolnir")]
                rows.append({
                    "figure": "12",
                    "scenario": scenario,
                    "rtt_threshold_pct": int(factor * 100),
                    "detections_per_step": count,
                    "precision": round(m.precision, 3),
                    "recall": round(m.recall, 3),
                })
    return rows


# ----------------------------------------------------------------------
# Fig. 13: ablations
# ----------------------------------------------------------------------
def fig13a_threshold_ablation(cases: int = 3,
                              scale: Optional[float] = None,
                              fixed_factors: Sequence[float] =
                              (0.8, 1.2, 1.8, 2.4, 3.6)) -> list[dict]:
    """Step-grained vs. fixed RTT thresholds: precision and processing
    overhead in the flow-contention scenario (≤3 detections/step)."""
    from repro.baselines.vedrfolnir_adapter import VedrfolnirAdapter

    cfg = scenario_config(scale)
    case_list = make_cases("flow_contention", cases, cfg)
    # reference base RTT: the max across the topology (what a fixed
    # threshold would realistically be derived from)
    probe_net, probe_rt = case_list[0].build_network()
    base_rtts = [probe_net.routing.base_rtt_ns(s.node, s.peer)
                 for s in probe_rt.schedule.all_steps()]
    max_base = max(base_rtts)

    settings: list[tuple[str, Optional[float]]] = [("step-aware", None)]
    settings += [(f"fixed-{int(f * 100)}%", f * max_base)
                 for f in fixed_factors]
    cache = cache_from_env()
    rows = []
    for label, fixed in settings:
        results = []
        for case in case_list:
            adapter = VedrfolnirAdapter(VedrfolnirConfig(
                detection=DetectionConfig(
                    detections_per_step=3,
                    fixed_rtt_threshold_ns=fixed)))
            results.append(cached_run_case(
                case, "vedrfolnir", system=adapter, cache=cache,
                key_extra={"fig": "13a", "detections_per_step": 3,
                           "fixed_rtt_threshold_ns": fixed}))
        m = aggregate(results)[("flow_contention", "vedrfolnir")]
        rows.append({
            "figure": "13a",
            "threshold": label,
            "precision": round(m.precision, 3),
            "recall": round(m.recall, 3),
            "processing_kb": round(m.avg_processing_kb, 1),
        })
    return rows


def fig13b_count_ablation(cases: int = 3,
                          scale: Optional[float] = None,
                          counts: Sequence[int] = (1, 2, 3, 5, 8)
                          ) -> list[dict]:
    """Detection-count allocation vs. Hawkeye-like unrestricted
    triggering: overhead in the flow-contention scenario."""
    from repro.baselines.vedrfolnir_adapter import VedrfolnirAdapter

    cfg = scenario_config(scale)
    case_list = make_cases("flow_contention", cases, cfg)
    settings: list[tuple[str, DetectionConfig]] = [
        (str(count), DetectionConfig(detections_per_step=count))
        for count in counts]
    settings.append(("unrestricted", DetectionConfig(
        detections_per_step=10_000, restrict_trigger_interval=False)))
    cache = cache_from_env()
    rows = []
    for label, det in settings:
        results = []
        for case in case_list:
            adapter = VedrfolnirAdapter(VedrfolnirConfig(detection=det))
            results.append(cached_run_case(
                case, "vedrfolnir", system=adapter, cache=cache,
                key_extra={"fig": "13b",
                           "detections_per_step": det.detections_per_step,
                           "restrict_trigger_interval":
                               det.restrict_trigger_interval}))
        m = aggregate(results)[("flow_contention", "vedrfolnir")]
        rows.append({
            "figure": "13b",
            "detections_per_step": label,
            "processing_kb": round(m.avg_processing_kb, 1),
            "bandwidth_kb": round(m.avg_bandwidth_kb, 1),
            "precision": round(m.precision, 3),
            "avg_triggers": round(m.avg_triggers, 1),
        })
    return rows


# ----------------------------------------------------------------------
# Fig. 14: case study
# ----------------------------------------------------------------------
def fig14_case_study(scale: Optional[float] = None,
                     seed: int = 7) -> dict:
    """The §IV-D case study: 8-node ring with two interfering background
    flows, BF1 ≈ 90 MB and BF2 ≈ 450 MB (scaled).

    Returns the pruned waiting graph, the critical path, the diagnosis
    and the contributor scores; the paper's qualitative result is that
    BF2's impact score far exceeds BF1's.
    """
    import random

    from repro.anomalies.scenarios import (
        collective_paths,
        find_colliding_flow,
        _switch_links,
    )

    effective_scale = scale if scale is not None else env_scale()
    network = Network(build_fat_tree(4))
    # the paper runs the ring among "Nodes 12-19"; our fat-tree's second
    # half of hosts plays that role
    nodes = [f"h{i}" for i in range(8, 16)]
    chunk = max(40_000, int(360 * MB * effective_scale))
    runtime = CollectiveRuntime(network, ring_allgather(nodes, chunk))
    system = VedrfolnirSystem(network, runtime)
    runtime.start()

    rng = random.Random(seed)
    links: set = set()
    for path in collective_paths(network, runtime).values():
        links |= _switch_links(path, network)
    bf_flows: dict[str, FlowKey] = {}
    for name, paper_mb, start_ms in (("BF1", 90, 0.0), ("BF2", 450, 0.1)):
        # background endpoints may be any host (as in Fig. 2a, where the
        # interfering flows cross the collective's switches)
        key = find_colliding_flow(network, links, rng)
        if key is None:
            raise RuntimeError("could not place a colliding background "
                               "flow for the case study")
        size = max(40_000, int(paper_mb * MB * effective_scale))
        flow = network.create_flow(key.src, key.dst, size,
                                   start_time=start_ms * effective_scale
                                   * ms(200),
                                   key=key)
        flow.start()
        bf_flows[name] = key

    network.run_until_quiet(max_time=ms(2_000) * max(effective_scale, 0.01))
    diagnosis = system.analyze()
    diagnosis.waiting_graph.prune_unwaited()
    scores = {name: diagnosis.collective_scores.get(key, 0.0)
              for name, key in bf_flows.items()}
    critical = [f"F[{e.node}]S{e.step_index}"
                for e in diagnosis.critical_path]
    return {
        "figure": "14",
        "collective_completed": runtime.completed,
        "collective_ms": round((runtime.total_time_ns or 0) / 1e6, 3),
        "waiting_graph_vertices": len(diagnosis.waiting_graph.vertices),
        "critical_path": critical,
        "bottleneck_steps": diagnosis.bottleneck_steps,
        "findings": [f.type.value for f in diagnosis.result.findings],
        "bf_scores": scores,
        "bf_keys": {n: k.short() for n, k in bf_flows.items()},
        "diagnosis": diagnosis,
    }
