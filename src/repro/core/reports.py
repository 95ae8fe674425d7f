"""Operator-facing diagnostic reports.

:class:`VedrfolnirDiagnosis` and a live
:class:`~repro.live.pipeline.DiagnosisSnapshot` are programmatic
results; operators want a document.  :func:`render_text` produces a
sectioned plain-text report (bottleneck analysis, anomaly breakdown,
contributor ranking, recommended actions) over either, and
:func:`render_json` a stable JSON structure for dashboards/ticketing
integrations whose critical-path, finding and contributor entries are
the ones a snapshot's ``to_dict`` prints.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.core.analyzer import VedrfolnirDiagnosis
from repro.core.diagnosis import AnomalyFinding, AnomalyType
from repro.core.units import ns_to_us
from repro.core.waiting_graph import CriticalPathEntry
from repro.simnet.packet import FlowKey

if TYPE_CHECKING:
    from repro.live.pipeline import DiagnosisSnapshot

#: characters of the widest bar :func:`format_critical_path` draws
TIMELINE_WIDTH = 60
#: contributors :func:`render_text` ranks
TEXT_TOP_CONTRIBUTORS = 5

#: per anomaly type: what a NOC runbook would say
RECOMMENDED_ACTIONS = {
    AnomalyType.FLOW_CONTENTION:
        "rate-limit or reschedule the top contributing background flows",
    AnomalyType.INCAST:
        "stagger the senders targeting the hot destination or enable "
        "deeper ECN marking at its ToR",
    AnomalyType.PFC_BACKPRESSURE:
        "relieve the congestion root port; consider ECN thresholds "
        "below PFC XOFF on that path",
    AnomalyType.PFC_STORM:
        "isolate the storm port immediately (disable PFC on it or take "
        "the link down); suspect NIC/switch firmware",
    AnomalyType.FORWARDING_LOOP:
        "audit recent routing reconfigurations; the loop self-heals "
        "only when routes converge",
    AnomalyType.PFC_DEADLOCK:
        "break the cycle by resetting one port's pause state; audit "
        "up-down routing compliance",
    AnomalyType.LOAD_IMBALANCE:
        "rehash/repath the converged flows (ECMP seed or explicit "
        "path control)",
}


def critical_path_entry(entry: CriticalPathEntry) -> dict:
    """One critical-path step, as every JSON document prints it."""
    return {"node": entry.node, "step": entry.step_index,
            "start_ns": entry.start_time, "end_ns": entry.end_time,
            "entered_via": entry.entered_via}


def finding_entry(finding: AnomalyFinding) -> dict:
    """A finding's type, detail, root ports and culprit flows — the
    whole finding in a live snapshot, the head of one in
    :func:`render_json`."""
    return {"type": finding.type.value, "detail": finding.detail,
            "root_ports": [str(p) for p in finding.root_ports],
            "culprit_flows": sorted(
                f.short() for f in finding.culprit_flows)}


def contributor_entry(flow: FlowKey, score: float) -> dict:
    """One row of the Eq. 3 contributor ranking."""
    return {"flow": flow.short(), "score": score}


def format_critical_path(path: Iterable[CriticalPathEntry]) -> str:
    """ASCII timeline of the critical path: one bar per step, scaled to
    the chain's total duration."""
    entries = list(path)
    if not entries:
        return "(empty critical path)"
    start = min(e.start_time for e in entries)
    end = max(e.end_time for e in entries)
    span = max(end - start, 1e-9)
    lines = []
    for entry in entries:
        offset = int((entry.start_time - start) / span * TIMELINE_WIDTH)
        width = max(1, int(entry.duration_ns / span * TIMELINE_WIDTH))
        bar = " " * offset + "#" * width
        label = f"F[{entry.node}]S{entry.step_index}"
        via = f" (via {entry.entered_via})" if entry.entered_via else ""
        lines.append(f"{label:<12} |{bar:<{TIMELINE_WIDTH}}| "
                     f"{ns_to_us(entry.duration_ns):.1f}us{via}")
    return "\n".join(lines)


def render_text(diagnosis: Union[VedrfolnirDiagnosis, DiagnosisSnapshot],
                title: str = "Vedrfolnir diagnostic report",
                collective: str = "") -> str:
    """A complete plain-text report over a batch diagnosis or a live
    snapshot: it reads only the fields both carry.  ``collective`` is
    the caller's one-line description of the collective, printed under
    the title."""
    lines = [title, "=" * len(title), ""]
    if collective:
        lines += [collective, ""]

    lines.append("performance bottleneck")
    lines.append("-" * 22)
    if diagnosis.bottleneck_steps:
        lines.append(f"slow steps: {diagnosis.bottleneck_steps}")
    else:
        lines.append("no step ran significantly over its ideal time")
    lines.append("critical path:")
    lines.append(format_critical_path(diagnosis.critical_path))
    lines.append("")

    lines.append("anomaly breakdown")
    lines.append("-" * 17)
    if not diagnosis.result.findings:
        lines.append("no network anomalies diagnosed")
    seen_actions = []
    for finding in diagnosis.result.findings:
        lines.append(f"* {finding.type.value}: {finding.detail}")
        if finding.root_ports:
            lines.append("    root port(s): "
                         + ", ".join(map(str, finding.root_ports)))
        if finding.culprit_flows:
            culprits = sorted(f.short() for f in finding.culprit_flows)
            lines.append(f"    culprit flows: {', '.join(culprits)}")
        action = RECOMMENDED_ACTIONS.get(finding.type)
        if action and action not in seen_actions:
            seen_actions.append(action)
    lines.append("")

    ranked = diagnosis.top_contributors(TEXT_TOP_CONTRIBUTORS)
    if ranked:
        lines.append("contributor ranking (Eq. 3)")
        lines.append("-" * 27)
        for flow, score in ranked:
            lines.append(f"  {flow.short():<32} {score:14,.0f}")
        lines.append("")

    if seen_actions:
        lines.append("recommended actions")
        lines.append("-" * 19)
        for i, action in enumerate(seen_actions, 1):
            lines.append(f"{i}. {action}")
    return "\n".join(lines)


def render_json(diagnosis: VedrfolnirDiagnosis,
                top_contributors: int = 10,
                indent: Optional[int] = None) -> str:
    """A machine-readable report."""
    graph = diagnosis.waiting_graph
    payload = {
        "collective": {
            "algorithm": graph.schedule.algorithm,
            "op": graph.schedule.op.value,
            "nodes": graph.schedule.nodes,
            "steps_recorded": len(graph.records),
            "total_time_ns": graph.total_time_ns(),
        },
        "bottleneck_steps": diagnosis.bottleneck_steps,
        "critical_path": [critical_path_entry(entry)
                          for entry in diagnosis.critical_path],
        "findings": [
            {**finding_entry(finding),
             "victim_ports": [str(p) for p in finding.victim_ports],
             "victim_flows": sorted(
                 f.short() for f in finding.victim_flows),
             "recommended_action":
                 RECOMMENDED_ACTIONS.get(finding.type, "")}
            for finding in diagnosis.result.findings],
        "contributors": [
            contributor_entry(flow, score)
            for flow, score in diagnosis.top_contributors(
                top_contributors)],
    }
    return json.dumps(payload, indent=indent)
