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
from bisect import bisect_left, insort
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
#: where a by-port row keeps its (contention, incast, load-imbalance)
#: findings, and its (waiting, feeding) flow counts
_FOUND, _SIZES = 5, 6


def _port_sharing(graph: ProvenanceGraph) -> list[tuple]:
    """Who shares each port flows wait at, by port name: (name, port,
    collective flows waiting there, other flows waiting there or
    feeding its queue, whether the collective flows queue behind each
    other, the port's (contention, incast, load-imbalance) findings or
    None each, its (waiting, feeding) flow counts) — what every by-port
    detector reads.  On a graph an accumulator snapshots, the rows and
    their order are kept, and only the ports a report moved since the
    last call are looked at again; a row that comes out the same keeps
    its findings, one that does not replaces it in place."""
    index = graph.adjacency()
    rows = index.rows
    if rows is None:        # a hand-filled graph may change yet
        return sorted((_row(graph, index, port, waiting, None)
                       for port, waiting in index.waiting_at_port.items()),
                      key=itemgetter(0))
    if index.sharing is not None and not index.stale:
        return index.sharing
    waiting_at = index.waiting_at_port
    fresh = {}
    for port in index.stale if index.sharing is not None else waiting_at:
        waiting = waiting_at.get(port)
        if waiting is not None:
            old = rows.get(port)
            row = _row(graph, index, port, waiting, old)
            if row is not old:
                rows[port] = fresh[port] = row
    index.stale = set()
    index.moved_rows.update(fresh)
    sharing = index.sharing
    if sharing is None:
        index.sharing = sorted(fresh.values(), key=itemgetter(0))
        return index.sharing
    for row in fresh.values():
        at = bisect_left(sharing, row[0], key=itemgetter(0))
        if at < len(sharing) and sharing[at][1] == row[1]:
            sharing[at] = row
        else:
            sharing.insert(at, row)
    return sharing


def _row(graph: ProvenanceGraph, index: Adjacency, port: PortRef,
         waiting: list[FlowKey], old: Optional[tuple]) -> tuple:
    """``port``'s :func:`_port_sharing` row — ``old`` if it reads the
    same.  Flow lists only grow, so ``old`` stands while they kept their
    lengths, unless a pairwise weight may have made it mutual."""
    sizes = (len(waiting), len(index.flows_at_port.get(port, ())))
    if old is not None and old[_SIZES] == sizes \
            and (old[4] or len(old[2]) < 2):
        return old
    cf_set = graph.collective_flows
    others = set(waiting)
    # flows contributing to the port (e(p,f)) contend too
    others.update(index.flows_at_port.get(port, ()))
    others -= cf_set
    victims = cf_set.intersection(waiting)
    pairwise = graph.pairwise
    mutual = len(victims) > 1 and any(
        pairwise[key] > 0 for key in index.mutual.get(port, ())
        if key[1] in victims and key[2] in victims)
    if old is not None and old[2] == victims and old[3] == others \
            and old[4] == mutual:
        return old if old[_SIZES] == sizes else (*old[:_SIZES], sizes)
    name = _port_name(port)
    contention = incast = imbalance = None
    if victims and others:
        contention = AnomalyFinding(
            type=AnomalyType.FLOW_CONTENTION,
            culprit_flows=set(others),
            victim_ports=[port],
            root_ports=[port],
            victim_flows=set(victims),
            detail=f"{len(others)} flow(s) contend with the "
                   f"collective at {name}")
        destinations = {flow.dst for flow in others}
        if len(others) > 1 and len(destinations) == 1:
            incast = AnomalyFinding(
                type=AnomalyType.INCAST,
                culprit_flows=set(others),
                victim_ports=[port],
                root_ports=[port],
                victim_flows=set(victims),
                detail=f"{len(others)} flows incast toward "
                       f"{destinations.pop()}")
    if mutual:
        imbalance = AnomalyFinding(
            type=AnomalyType.LOAD_IMBALANCE,
            victim_ports=[port],
            root_ports=[port],
            victim_flows=set(victims),
            detail=f"{len(victims)} collective flows converge on "
                   f"{name} (ECMP imbalance)")
    return (name, port, victims, others, mutual,
            (contention, incast, imbalance), sizes)


def detect_flow_contention(graph: ProvenanceGraph
                           ) -> list[AnomalyFinding]:
    """∃p: {f_i, cf} ⊆ F ∧ {e(f_i,p), e(cf,p)} ⊆ E ∧ f_i ≠ cf."""
    return [row[_FOUND][0] for row in _port_sharing(graph)
            if row[_FOUND][0] is not None]


def detect_load_imbalance(graph: ProvenanceGraph
                          ) -> list[AnomalyFinding]:
    """ECMP misjudgment (§II-B): collective flows that should spread
    over equal-cost paths pile onto one port and queue behind *each
    other*.  Signature: ≥2 distinct collective flows with e(cf, p) at
    the same port and mutual queueing-ahead weight between them."""
    return [row[_FOUND][2] for row in _port_sharing(graph)
            if row[_FOUND][2] is not None]


def detect_incast(graph: ProvenanceGraph) -> list[AnomalyFinding]:
    """Contention whose culprits converge on a single destination."""
    return [row[_FOUND][1] for row in _port_sharing(graph)
            if row[_FOUND][1] is not None]


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
                                          Iterable[PortRef],
                                          Optional[tuple]]:
    """What waiting at ``port`` implicates — (storm | backpressure, root
    ports, culprit flows, finding key, root names), or None when PFC is
    not involved there — after the ports whose pauses, paused flag and
    PFC edges that answer read, and those whose flows it read."""
    pausers = index.pause_senders.get(port, ())
    if not pausers and port not in graph.paused_ports \
            and port not in index.downstream:
        return (port,), (), None
    read, terminals = _chase_pfc_chain(index.downstream, port)
    ungrounded = graph.ungrounded_pause_sources
    storm_sources = {sender for victim in read
                     for sender in index.pause_senders.get(victim, ())
                     if sender in ungrounded}
    if storm_sources:
        kind = AnomalyType.PFC_STORM
        roots = sorted(storm_sources, key=_port_name)
        culprits: set[FlowKey] = set()
        flows_of: Iterable[PortRef] = ()
    else:
        kind = AnomalyType.PFC_BACKPRESSURE
        # paused but chain info missing: root at the pause senders
        roots = [t for t in terminals if t != port] \
            or sorted(set(pausers), key=_port_name)
        if not roots:
            return read, (), None
        flows_of = roots
        culprits = {flow for root in roots
                    for edges in (index.flows_at_port,
                                  index.waiting_at_port)
                    for flow in edges.get(root, ())}
        culprits -= graph.collective_flows
    names = sorted(map(_port_name, roots))
    return read, flows_of, (kind, roots, culprits, (kind, tuple(names)),
                            ", ".join(map(_port_name, roots)))


def detect_pfc_anomalies(graph: ProvenanceGraph) -> list[AnomalyFinding]:
    """PFC backpressure and PFC storm, with root localization.

    ∃p, cf: e(cf,p) ∧ (p paused or e(p, p_j) exists).  The chase walks
    the spreading path; an ungrounded pause source anywhere along it
    reclassifies the finding as a storm rooted at that source.  One
    finding per (type, root ports), gathering every victim.

    Collective flows share ports, and what a port implicates is its
    own: evidence is worked out once per port — and, on a graph an
    accumulator snapshots, kept with its waits until a report moves a
    port it read; the waits stay sorted, and a finding whose waits did
    not move is handed out again.
    """
    index = graph.adjacency()
    sharing = _port_sharing(graph)
    evidence = index.evidence
    if evidence is None:        # a hand-filled graph: every port, once
        moved = []
        for name, port, victims, *_ in sharing:
            found = victims and _pfc_evidence(graph, index, port)[2]
            if found:
                moved.append((None, _waits_at(name, port, victims, found)))
        return [finding for _, finding in _regroup({}, {}, moved).values()]
    stale = index.stale_evidence
    ports = stale | index.moved_rows if index.pfc is not None \
        else index.rows
    index.stale_evidence, index.moved_rows = set(), set()
    moved = []
    for port in ports:
        row = index.rows.get(port)
        if row is None or not row[2]:
            continue                # no collective flow waits there
        name, _, victims = row[:3]
        known = evidence.get(port)
        if known is not None and port not in stale:
            if known[2] is victims:
                continue
            read, flows_of, found = known[0], known[4], known[3]
        else:
            read, flows_of, found = _pfc_evidence(graph, index, port)
        waits = known[1] if known is not None and known[2] == victims \
            and known[3] == found \
            else found and _waits_at(name, port, victims, found)
        evidence[port] = (read, waits, victims, found, flows_of)
        if known is None or waits is not known[1]:
            moved.append((known and known[1], waits))
    if moved or index.pfc is None:
        index.pfc = _regroup(index.groups, index.pfc or {}, moved)
    return [finding for _, finding in index.pfc.values()]


def _waits_at(name: str, port: PortRef, victims: set[FlowKey],
              found: tuple) -> list[tuple]:
    return [(_flow_name(cf), name, cf, port, found) for cf in victims]


#: waits sort by flow name, then port name
_wait_order = itemgetter(0, 1)


def _regroup(groups: dict, findings: dict, moved: list) -> dict:
    """Move each (old waits, new waits) of ``moved`` between the sorted
    wait groups, one per (type, root names); build again the finding of
    each group whose waits moved, and order the findings by their first
    wait, as a pass over every wait in order would meet them."""
    touched = {}
    for old, new in moved:
        for wait in old or ():
            groups[wait[4][3]].remove(wait)
            touched[wait[4][3]] = None
        for wait in new or ():
            insort(groups.setdefault(wait[4][3], []), wait,
                   key=_wait_order)
            touched[wait[4][3]] = None
    for key in touched:
        members = groups.get(key)
        if not members:
            groups.pop(key, None)
            findings.pop(key, None)
        elif findings.get(key, ((),))[0] != (members := tuple(members)):
            findings[key] = (members, _pfc_finding(members))
    return dict(sorted(findings.items(),
                       key=lambda item: _wait_order(item[1][0][0])))


def _pfc_finding(members: Iterable[tuple]) -> AnomalyFinding:
    """The finding gathering ``members``, waits in order: the first
    names it."""
    first, *rest = members
    _, name, cf, port, (kind, roots, culprits, _key, chain) = first
    finding = AnomalyFinding(
        type=kind,
        culprit_flows=set(culprits),
        victim_ports=[port],
        root_ports=list(roots),
        victim_flows={cf},
        detail="ungrounded PAUSE injection traced to " + chain
        if kind is AnomalyType.PFC_STORM
        else f"PFC backpressure chain from {name} to {chain}",
    )
    for _, _, cf, _, found in rest:
        finding.victim_flows.add(cf)
        finding.culprit_flows |= found[2]
    return finding


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


def diagnose(graph: ProvenanceGraph) -> DiagnosisResult:
    """Run every signature detector over the provenance graph."""
    result = DiagnosisResult()
    for detector in SIGNATURE_DETECTORS:
        result.findings.extend(detector(graph))
    return result
