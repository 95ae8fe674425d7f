"""Anomaly breakdown: signature-based root-cause classification (§III-D2).

Each detector inspects the provenance graph for one signature:

* **flow contention** — some port has both a collective flow and a
  non-collective flow waiting on it;
* **incast** — a contention port whose culprits all target one
  destination host;
* **PFC backpressure** — a collective flow waits at a port from which a
  chain of PFC-causality edges leads to a congestion root elsewhere;
* **PFC storm** — the chain ends at a pause source that emitted PAUSE
  frames without buffer justification (hardware-bug signature);
* **forwarding loop** — TTL-expiry drops recorded for a flow;
* **PFC deadlock** — a cycle in the PFC-causality edges.

New anomaly types can be added by appending detectors to
``SIGNATURE_DETECTORS`` (the extensibility point §V describes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.provenance import ProvenanceGraph
from repro.simnet.packet import FlowKey
from repro.simnet.pfc import PortRef


class AnomalyType(enum.Enum):
    FLOW_CONTENTION = "flow_contention"
    INCAST = "incast"
    PFC_BACKPRESSURE = "pfc_backpressure"
    PFC_STORM = "pfc_storm"
    FORWARDING_LOOP = "forwarding_loop"
    PFC_DEADLOCK = "pfc_deadlock"
    LOAD_IMBALANCE = "load_imbalance"


@dataclass
class AnomalyFinding:
    """One diagnosed anomaly."""

    type: AnomalyType
    #: non-collective flows implicated as culprits
    culprit_flows: set[FlowKey] = field(default_factory=set)
    #: ports where the victim collective flows are impacted
    victim_ports: list[PortRef] = field(default_factory=list)
    #: localized root-cause ports (PFC source / congestion root / cycle)
    root_ports: list[PortRef] = field(default_factory=list)
    #: collective flows affected
    victim_flows: set[FlowKey] = field(default_factory=set)
    detail: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"AnomalyFinding({self.type.value}, "
                f"culprits={sorted(f.short() for f in self.culprit_flows)}, "
                f"roots={[str(p) for p in self.root_ports]})")


@dataclass
class DiagnosisResult:
    """Structured diagnostic output of the analyzer."""

    findings: list[AnomalyFinding] = field(default_factory=list)

    @property
    def detected_flows(self) -> set[FlowKey]:
        flows: set[FlowKey] = set()
        for finding in self.findings:
            flows |= finding.culprit_flows
        return flows

    @property
    def root_ports(self) -> set[PortRef]:
        ports: set[PortRef] = set()
        for finding in self.findings:
            ports.update(finding.root_ports)
        return ports

    def has(self, anomaly_type: AnomalyType) -> bool:
        return any(f.type is anomaly_type for f in self.findings)

    def of_type(self, anomaly_type: AnomalyType) -> list[AnomalyFinding]:
        return [f for f in self.findings if f.type is anomaly_type]


# ----------------------------------------------------------------------
# individual detectors
# ----------------------------------------------------------------------
def detect_flow_contention(graph: ProvenanceGraph
                           ) -> list[AnomalyFinding]:
    """∃p: {f_i, cf} ⊆ F ∧ {e(f_i,p), e(cf,p)} ⊆ E ∧ f_i ≠ cf."""
    findings: list[AnomalyFinding] = []
    cf_set = graph.collective_flows
    by_port: dict[PortRef, tuple[set[FlowKey], set[FlowKey]]] = {}
    for (flow, port) in graph.flow_port:
        victims, culprits = by_port.setdefault(port, (set(), set()))
        if flow in cf_set:
            victims.add(flow)
        else:
            culprits.add(flow)
    # flows contributing to the port (e(p,f)) count as contenders too
    for (port, flow) in graph.port_flow:
        if port in by_port and flow not in cf_set:
            by_port[port][1].add(flow)
    for port, (victims, culprits) in sorted(
            by_port.items(), key=lambda kv: str(kv[0])):
        if victims and culprits:
            findings.append(AnomalyFinding(
                type=AnomalyType.FLOW_CONTENTION,
                culprit_flows=culprits,
                victim_ports=[port],
                root_ports=[port],
                victim_flows=victims,
                detail=f"{len(culprits)} flow(s) contend with the "
                       f"collective at {port}",
            ))
    return findings


def detect_load_imbalance(graph: ProvenanceGraph
                          ) -> list[AnomalyFinding]:
    """ECMP misjudgment (§II-B): collective flows that should spread
    over equal-cost paths pile onto one port and queue behind *each
    other*.  Signature: ≥2 distinct collective flows with e(cf, p) at
    the same port and mutual queueing-ahead weight between them."""
    findings: list[AnomalyFinding] = []
    cf_set = graph.collective_flows
    by_port: dict[PortRef, set[FlowKey]] = {}
    for (flow, port) in graph.flow_port:
        if flow in cf_set:
            by_port.setdefault(port, set()).add(flow)
    for port, victims in sorted(by_port.items(), key=lambda kv: str(kv[0])):
        if len(victims) < 2:
            continue
        mutual = any(
            graph.pairwise_weight(port, a, b) > 0
            for a in victims for b in victims if a != b)
        if not mutual:
            continue
        findings.append(AnomalyFinding(
            type=AnomalyType.LOAD_IMBALANCE,
            victim_ports=[port],
            root_ports=[port],
            victim_flows=set(victims),
            detail=f"{len(victims)} collective flows converge on "
                   f"{port} (ECMP imbalance)",
        ))
    return findings


def detect_incast(graph: ProvenanceGraph) -> list[AnomalyFinding]:
    """Contention whose culprits converge on a single destination."""
    findings = []
    for contention in detect_flow_contention(graph):
        culprits = contention.culprit_flows
        destinations = {flow.dst for flow in culprits}
        if len(culprits) >= 2 and len(destinations) == 1:
            findings.append(AnomalyFinding(
                type=AnomalyType.INCAST,
                culprit_flows=culprits,
                victim_ports=contention.victim_ports,
                root_ports=contention.root_ports,
                victim_flows=contention.victim_flows,
                detail=f"{len(culprits)} flows incast toward "
                       f"{destinations.pop()}",
            ))
    return findings


def _chase_pfc_chain(graph: ProvenanceGraph,
                     start: PortRef) -> tuple[set[PortRef], list[PortRef]]:
    """Follow e(p_i, p_j) edges from ``start``; return (reachable set,
    terminal ports with no further downstream)."""
    reachable: set[PortRef] = set()
    terminals: list[PortRef] = []
    stack = [start]
    while stack:
        port = stack.pop()
        if port in reachable:
            continue
        reachable.add(port)
        downstream = graph.downstream_ports(port)
        if not downstream:
            terminals.append(port)
        else:
            stack.extend(downstream)
    return reachable, terminals


def _pfc_evidence(graph: ProvenanceGraph, port: PortRef
                  ) -> Optional[tuple[AnomalyType, list[PortRef],
                                      set[FlowKey]]]:
    """What waiting at ``port`` implicates: (storm | backpressure, root
    ports, culprit flows), or None when PFC is not involved there."""
    pausers = graph.pause_senders_to(port)
    if not pausers and port not in graph.paused_ports \
            and not graph.downstream_ports(port):
        return None
    reachable, terminals = _chase_pfc_chain(graph, port)
    storm_sources = {sender for victim in reachable
                     for sender in graph.pause_senders_to(victim)
                     if sender in graph.ungrounded_pause_sources}
    if storm_sources:
        return AnomalyType.PFC_STORM, sorted(storm_sources, key=str), set()
    # paused but chain info missing: root at the pause senders
    roots = [t for t in terminals if t != port] \
        or sorted(set(pausers), key=str)
    if not roots:
        return None
    cf_set = graph.collective_flows
    culprits = {flow for root in roots
                for flow in (graph.flows_at_port(root)
                             + graph.waiting_flows_at_port(root))
                if flow not in cf_set}
    return AnomalyType.PFC_BACKPRESSURE, roots, culprits


def detect_pfc_anomalies(graph: ProvenanceGraph) -> list[AnomalyFinding]:
    """PFC backpressure and PFC storm, with root localization.

    ∃p, cf: e(cf,p) ∧ (p paused or e(p, p_j) exists).  The chase walks
    the spreading path; an ungrounded pause source anywhere along it
    reclassifies the finding as a storm rooted at that source.  One
    finding per (type, root ports), gathering every victim.
    """
    findings: dict[tuple, AnomalyFinding] = {}
    #: collective flows share ports; what a port implicates is its own
    evidence: dict[PortRef, Optional[tuple]] = {}
    for cf in sorted(graph.collective_flows, key=lambda f: f.short()):
        for port in sorted(graph.ports_of_flow(cf), key=str):
            if port not in evidence:
                evidence[port] = _pfc_evidence(graph, port)
            if evidence[port] is None:
                continue
            kind, roots, culprits = evidence[port]
            key = (kind, tuple(sorted(map(str, roots))))
            finding = findings.get(key)
            if finding is not None:
                finding.victim_flows.add(cf)
                finding.culprit_flows |= culprits
                continue
            chain = ", ".join(map(str, roots))
            findings[key] = AnomalyFinding(
                type=kind,
                culprit_flows=set(culprits),
                victim_ports=[port],
                root_ports=list(roots),
                victim_flows={cf},
                detail="ungrounded PAUSE injection traced to " + chain
                if kind is AnomalyType.PFC_STORM
                else f"PFC backpressure chain from {port} to {chain}",
            )
    return list(findings.values())


def detect_forwarding_loop(graph: ProvenanceGraph) -> list[AnomalyFinding]:
    """TTL-expiry drops recorded in telemetry implicate a loop."""
    if not graph.ttl_drop_flows:
        return []
    return [AnomalyFinding(
        type=AnomalyType.FORWARDING_LOOP,
        culprit_flows={f for f in graph.ttl_drop_flows
                       if f not in graph.collective_flows},
        victim_flows={f for f in graph.ttl_drop_flows
                      if f in graph.collective_flows},
        detail=f"TTL expiry observed for "
               f"{len(graph.ttl_drop_flows)} flow(s)",
    )]


def detect_pfc_deadlock(graph: ProvenanceGraph) -> list[AnomalyFinding]:
    """A cycle of PFC-causality edges halts everything on the cycle."""
    cycles = graph.port_port_cycles()
    return [AnomalyFinding(
        type=AnomalyType.PFC_DEADLOCK,
        root_ports=list(cycle),
        detail="PFC wait cycle: " + " -> ".join(map(str, cycle)),
    ) for cycle in cycles]


SIGNATURE_DETECTORS: list[Callable[[ProvenanceGraph],
                                   list[AnomalyFinding]]] = [
    detect_flow_contention,
    detect_incast,
    detect_load_imbalance,
    detect_pfc_anomalies,
    detect_forwarding_loop,
    detect_pfc_deadlock,
]


def diagnose(graph: ProvenanceGraph,
             detectors: Optional[list] = None) -> DiagnosisResult:
    """Run every signature detector over the provenance graph."""
    result = DiagnosisResult()
    for detector in detectors or SIGNATURE_DETECTORS:
        result.findings.extend(detector(graph))
    return result
