"""Per-case runner and the paper's scoring rules (§IV-A).

Scoring:

* **flow contention / incast** — detecting *all* injected flows is a
  true positive; detecting only some is a false positive; failing to
  detect any anomaly is a false negative.
* **PFC storm / backpressure** — tracing to the source port is a true
  positive; merely reporting the presence of PFC is a false positive;
  detecting nothing is a false negative.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.anomalies.scenarios import GroundTruth, ScenarioCase
from repro.baselines.adapter import DiagnosisSystemAdapter, SystemOutput
from repro.baselines.full_polling import FullPollingSystem
from repro.baselines.hawkeye import HawkeyeSystem
from repro.baselines.vedrfolnir_adapter import VedrfolnirAdapter
from repro.core.diagnosis import AnomalyType, DiagnosisResult

SYSTEM_FACTORIES: dict[str, Callable[[], DiagnosisSystemAdapter]] = {
    "vedrfolnir": VedrfolnirAdapter,
    "hawkeye-maxr": lambda: HawkeyeSystem("max"),
    "hawkeye-minr": lambda: HawkeyeSystem("min"),
    "full-polling": FullPollingSystem,
}

DEFAULT_SYSTEMS = tuple(SYSTEM_FACTORIES)

PFC_TYPES = (AnomalyType.PFC_STORM, AnomalyType.PFC_BACKPRESSURE,
             AnomalyType.PFC_DEADLOCK)


def make_system(name: str) -> DiagnosisSystemAdapter:
    try:
        return SYSTEM_FACTORIES[name]()
    except KeyError:
        raise ValueError(f"unknown system {name!r}; "
                         f"choose from {sorted(SYSTEM_FACTORIES)}") from None


@dataclass
class CaseResult:
    """Everything measured for one (case, system) run."""

    scenario: str
    case_id: int
    system: str
    outcome: str  # "tp" | "fp" | "fn"
    processing_bytes: int
    bandwidth_bytes: int
    poll_packets: int
    notify_packets: int
    report_count: int
    triggers: int
    collective_completed: bool
    collective_time_ns: Optional[float]
    wall_seconds: float
    detected_flow_count: int
    injected_flow_count: int
    extras: dict = field(default_factory=dict)


def score_case(truth: GroundTruth, result: DiagnosisResult) -> str:
    """Apply the paper's TP/FP/FN criteria."""
    if truth.expects_flow_detection:
        if not result.findings:
            return "fn"
        detected = result.detected_flows
        if truth.injected_flows <= detected:
            return "tp"
        if detected & truth.injected_flows:
            return "fp"   # "detecting only some flows"
        return "fn"       # findings exist but none of the culprits
    if truth.scenario == "load_imbalance":
        findings = [f for f in result.findings
                    if f.type is AnomalyType.LOAD_IMBALANCE]
        if not findings:
            return "fn"
        roots = {p for f in findings for p in f.root_ports}
        return "tp" if truth.root_port in roots else "fp"
    # PFC localization scenarios
    pfc_findings = [f for f in result.findings if f.type in PFC_TYPES]
    if not pfc_findings:
        return "fn"
    if truth.root_port is not None and truth.root_port in result.root_ports:
        return "tp"
    return "fp"           # "merely reporting the presence of PFC"


def run_case(case: ScenarioCase, system_name: str,
             system: Optional[DiagnosisSystemAdapter] = None) -> CaseResult:
    """Run one scenario case under one diagnosis system."""
    wall_start = time.perf_counter()
    network, runtime = case.build_network()
    adapter = system if system is not None else make_system(system_name)
    adapter.attach(network, runtime)
    runtime.start()
    truth = case.inject(network, runtime)
    network.run_until_quiet(max_time=case.config.run_deadline_ns())
    output: SystemOutput = adapter.finalize()
    outcome = score_case(truth, output.result)
    return CaseResult(
        scenario=case.scenario,
        case_id=case.case_id,
        system=adapter.name,
        outcome=outcome,
        processing_bytes=network.processing_overhead_bytes,
        bandwidth_bytes=network.bandwidth_overhead_bytes,
        poll_packets=network.poll_packets,
        notify_packets=network.notify_packets,
        report_count=network.report_count,
        triggers=output.triggers,
        collective_completed=runtime.completed,
        collective_time_ns=runtime.total_time_ns,
        wall_seconds=time.perf_counter() - wall_start,
        detected_flow_count=len(output.result.detected_flows),
        injected_flow_count=len(truth.injected_flows),
        extras=dict(output.extras),
    )


def run_matrix(cases: list[ScenarioCase],
               systems: tuple[str, ...] = DEFAULT_SYSTEMS
               ) -> list[CaseResult]:
    """Run every case under every system (fresh network per run)."""
    results = []
    for case in cases:
        for system_name in systems:
            results.append(run_case(case, system_name))
    return results
