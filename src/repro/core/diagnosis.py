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
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Optional

from repro.core.provenance import Adjacency, ProvenanceGraph
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
#: the detectors' sort keys, computed once per port / flow
_port_name = lru_cache(maxsize=4096)(str)
_flow_name = lru_cache(maxsize=1 << 16)(FlowKey.short)


def _port_sharing(graph: ProvenanceGraph) -> list[tuple]:
    """Who shares each port flows wait at, by port name: (name, port,
    collective flows waiting there, other flows waiting there or
    feeding its queue, whether the collective flows queue behind each
    other) — what every by-port detector reads.  On a graph an
    accumulator snapshots it is one pass per snapshot, and only over
    the ports a report touched since the last one."""
    index = graph.adjacency()
    if index.sharing is not None:
        return index.sharing
    rows = index.rows if index.rows is not None else {}
    cf_set = graph.collective_flows
    pairwise = graph.pairwise
    sharing = []
    for port, waiting in index.waiting_at_port.items():
        row = rows.get(port)
        if row is None:
            others = set(waiting)
            # flows contributing to the port (e(p,f)) contend too
            others.update(index.flows_at_port.get(port, ()))
            others -= cf_set
            victims = cf_set.intersection(waiting)
            row = rows[port] = (
                _port_name(port), port, victims, others,
                len(victims) > 1 and any(
                    pairwise[key] > 0
                    for key in index.mutual.get(port, ())
                    if key[1] in victims and key[2] in victims))
        sharing.append(row)
    sharing.sort(key=itemgetter(0))
    if index.rows is not None:    # a hand-filled graph may change yet
        index.sharing = sharing
    return sharing


def detect_flow_contention(graph: ProvenanceGraph
                           ) -> list[AnomalyFinding]:
    """∃p: {f_i, cf} ⊆ F ∧ {e(f_i,p), e(cf,p)} ⊆ E ∧ f_i ≠ cf."""
    return [AnomalyFinding(
        type=AnomalyType.FLOW_CONTENTION,
        culprit_flows=set(culprits),
        victim_ports=[port],
        root_ports=[port],
        victim_flows=set(victims),
        detail=f"{len(culprits)} flow(s) contend with the "
               f"collective at {name}",
    ) for name, port, victims, culprits, _ in _port_sharing(graph)
        if victims and culprits]


def detect_load_imbalance(graph: ProvenanceGraph
                          ) -> list[AnomalyFinding]:
    """ECMP misjudgment (§II-B): collective flows that should spread
    over equal-cost paths pile onto one port and queue behind *each
    other*.  Signature: ≥2 distinct collective flows with e(cf, p) at
    the same port and mutual queueing-ahead weight between them."""
    return [AnomalyFinding(
        type=AnomalyType.LOAD_IMBALANCE,
        victim_ports=[port],
        root_ports=[port],
        victim_flows=set(victims),
        detail=f"{len(victims)} collective flows converge on "
               f"{name} (ECMP imbalance)",
    ) for name, port, victims, _, mutual in _port_sharing(graph)
        if mutual]


def detect_incast(graph: ProvenanceGraph) -> list[AnomalyFinding]:
    """Contention whose culprits converge on a single destination."""
    findings = []
    for _name, port, victims, culprits, _ in _port_sharing(graph):
        if not victims or len(culprits) < 2:
            continue
        destinations = {flow.dst for flow in culprits}
        if len(destinations) == 1:
            findings.append(AnomalyFinding(
                type=AnomalyType.INCAST,
                culprit_flows=set(culprits),
                victim_ports=[port],
                root_ports=[port],
                victim_flows=set(victims),
                detail=f"{len(culprits)} flows incast toward "
                       f"{destinations.pop()}",
            ))
    return findings


def _chase_pfc_chain(downstream: dict[PortRef, list[PortRef]],
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
        targets = downstream.get(port)
        if not targets:
            terminals.append(port)
        else:
            stack.extend(targets)
    return reachable, terminals


def _pfc_evidence(graph: ProvenanceGraph, index: Adjacency,
                  port: PortRef) -> tuple[Iterable[PortRef],
                                          Optional[tuple]]:
    """What waiting at ``port`` implicates — (storm | backpressure, root
    ports, culprit flows, finding key, root names), or None when PFC is
    not involved there — after the ports whose pauses, edges and flows
    that answer was read from."""
    pausers = index.pause_senders.get(port, ())
    if not pausers and port not in graph.paused_ports \
            and port not in index.downstream:
        return (port,), None
    read, terminals = _chase_pfc_chain(index.downstream, port)
    ungrounded = graph.ungrounded_pause_sources
    storm_sources = {sender for victim in read
                     for sender in index.pause_senders.get(victim, ())
                     if sender in ungrounded}
    if storm_sources:
        kind = AnomalyType.PFC_STORM
        roots = sorted(storm_sources, key=_port_name)
        culprits: set[FlowKey] = set()
    else:
        kind = AnomalyType.PFC_BACKPRESSURE
        # paused but chain info missing: root at the pause senders
        roots = [t for t in terminals if t != port] \
            or sorted(set(pausers), key=_port_name)
        if not roots:
            return read, None
        read.update(roots)
        culprits = {flow for root in roots
                    for edges in (index.flows_at_port,
                                  index.waiting_at_port)
                    for flow in edges.get(root, ())}
        culprits -= graph.collective_flows
    names = sorted(map(_port_name, roots))
    return read, (kind, roots, culprits, (kind, tuple(names)),
                  ", ".join(map(_port_name, roots)))


def detect_pfc_anomalies(graph: ProvenanceGraph) -> list[AnomalyFinding]:
    """PFC backpressure and PFC storm, with root localization.

    ∃p, cf: e(cf,p) ∧ (p paused or e(p, p_j) exists).  The chase walks
    the spreading path; an ungrounded pause source anywhere along it
    reclassifies the finding as a storm rooted at that source.  One
    finding per (type, root ports), gathering every victim.

    Collective flows share ports, and what a port implicates is its
    own: evidence is worked out once per port — and, on a graph an
    accumulator snapshots, kept until a report moves a port it read.
    """
    index = graph.adjacency()
    evidence = index.evidence if index.evidence is not None else {}
    #: every e(cf, p) with PFC evidence at p, by flow then port name
    waits = []
    for name, port, victims, _, _ in _port_sharing(graph):
        if not victims:
            continue
        known = evidence.get(port)
        if known is None:
            # the port is in what it read: its row is never newer
            read, found = _pfc_evidence(graph, index, port)
            known = evidence[port] = (read, found and [
                (_flow_name(cf), name, cf, port, found) for cf in victims])
        if known[1]:
            waits += known[1]
    waits.sort(key=itemgetter(0, 1))
    findings: dict[tuple, AnomalyFinding] = {}
    for _, name, cf, port, (kind, roots, culprits, key, chain) in waits:
        finding = findings.get(key)
        if finding is not None:
            finding.victim_flows.add(cf)
            finding.culprit_flows |= culprits
            continue
        findings[key] = AnomalyFinding(
            type=kind,
            culprit_flows=set(culprits),
            victim_ports=[port],
            root_ports=list(roots),
            victim_flows={cf},
            detail="ungrounded PAUSE injection traced to " + chain
            if kind is AnomalyType.PFC_STORM
            else f"PFC backpressure chain from {name} to {chain}",
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
