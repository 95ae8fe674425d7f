"""Network provenance graphs (§III-D1).

Built from the switch telemetry reports a detection burst collected.
Vertices are flows and ports; edges carry the paper's three weight
definitions:

* ``e(f, p)`` — flow waits at port; weight
  ``w(f_i, p) = Σ_{j≠i} w(f_i, f_j)`` where ``w(f_i, f_j)`` is the
  packets-ahead count telemetry accumulated at enqueue time;
* ``e(p, f)`` — flow's contribution to port congestion; weight
  ``w(p, f_i) = pkt_num(f_i) / pkt_num(p) × qdepth(p)``;
* ``e(p_i, p_j)`` — PFC causality (upstream egress ``p_i`` halted by
  downstream egress ``p_j``); weight = the share of ``p_j``'s window
  traffic that arrived over the paused link,
  ``meter(p_i, p_j) / Σ_k meter(p_k, p_j)``.

The graph also carries *ungrounded pause* evidence: PAUSE frames whose
sender-side ingress occupancy was below the XOFF threshold at emission —
the storm signature (a buggy port pausing without congestion pressure).
"""

from __future__ import annotations

import operator
from copy import copy
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Iterable, Optional

from repro.core.units import Bytes
from repro.simnet.packet import FlowKey
from repro.simnet.pfc import PauseEvent, PortRef
from repro.simnet.telemetry import SwitchReport


@dataclass
class ProvenanceGraph:
    """Flow/port provenance over one collection of reports."""

    collective_flows: set[FlowKey] = field(default_factory=set)
    flows: set[FlowKey] = field(default_factory=set)
    ports: set[PortRef] = field(default_factory=set)
    #: e(f, p) weights
    flow_port: dict[tuple[FlowKey, PortRef], float] = field(
        default_factory=dict)
    #: e(p, f) weights
    port_flow: dict[tuple[PortRef, FlowKey], float] = field(
        default_factory=dict)
    #: e(p_i, p_j) weights
    port_port: dict[tuple[PortRef, PortRef], float] = field(
        default_factory=dict)
    #: per-port pairwise waiting weights w_p(f_i, f_j)
    pairwise: dict[tuple[PortRef, FlowKey, FlowKey], float] = field(
        default_factory=dict)
    qdepth: dict[PortRef, int] = field(default_factory=dict)
    paused_ports: set[PortRef] = field(default_factory=set)
    #: ports that emitted PAUSE without buffer justification (storms)
    ungrounded_pause_sources: set[PortRef] = field(default_factory=set)
    #: every pause event observed, newest last
    pause_events: list[PauseEvent] = field(default_factory=list)
    #: flows with TTL-expiry drops (forwarding-loop evidence)
    ttl_drop_flows: set[FlowKey] = field(default_factory=set)
    #: lazily built adjacency over the edge dicts and pause events
    _index: Optional["_Adjacency"] = field(
        default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # queries used by diagnosis and rating — O(degree) off an adjacency
    # index built on first use and rebuilt when an edge dict or the
    # pause list was replaced or changed size (hand-built graphs fill
    # the public dicts directly); lists keep the dicts' insertion order
    # ------------------------------------------------------------------
    def _adjacency(self) -> "_Adjacency":
        index = self._index
        sources = (self.flow_port, self.port_flow, self.port_port,
                   self.pause_events)
        if index is None or index.sizes != tuple(map(len, sources)) \
                or any(map(operator.is_not, sources, index.sources)):
            index = self._index = _Adjacency(sources)
        return index

    def ports_of_flow(self, flow: FlowKey) -> list[PortRef]:
        """Ports the flow waits at (its e(f,p) neighbors)."""
        return list(self._adjacency().ports_of_flow.get(flow, ()))

    def waiting_flows(self) -> list[FlowKey]:
        """Flows with at least one e(f,p) edge."""
        return list(self._adjacency().ports_of_flow)

    def flows_at_port(self, port: PortRef) -> list[FlowKey]:
        """Flows contributing to the port's congestion (e(p,f))."""
        return list(self._adjacency().flows_at_port.get(port, ()))

    def waiting_flows_at_port(self, port: PortRef) -> list[FlowKey]:
        """Flows that wait at the port (e(f,p))."""
        return list(self._adjacency().waiting_at_port.get(port, ()))

    def downstream_ports(self, port: PortRef) -> list[PortRef]:
        """PFC causes: ports this port waits on (e(p_i, p_j) targets)."""
        return list(self._adjacency().downstream.get(port, ()))

    def pause_senders_to(self, victim: PortRef) -> list[PortRef]:
        """Senders of every PAUSE that halted ``victim``, oldest first
        (empty when the port was never a pause victim)."""
        return list(self._adjacency().pause_senders.get(victim, ()))

    def pairwise_weight(self, port: PortRef, fi: FlowKey,
                        fj: FlowKey) -> float:
        return self.pairwise.get((port, fi, fj), 0.0)

    def flow_pair_weight(self, fi: FlowKey, fj: FlowKey) -> float:
        """w(f_i, f_j) summed over all ports (the replay-derived
        quantity of Eq. 2)."""
        return sum(w for (p, a, b), w in self.pairwise.items()
                   if a == fi and b == fj)

    def background_flows(self) -> set[FlowKey]:
        return self.flows - self.collective_flows

    def port_port_cycles(self) -> list[list[PortRef]]:
        """Cycles in the PFC-causality edges — the deadlock signature."""
        if not self.port_port:
            return []
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_edges_from(self.port_port.keys())
        return [list(cycle) for cycle in nx.simple_cycles(graph)]

    def connected_component_from_cf(self) -> set:
        """Vertices reachable (undirected) from the collective flows —
        §III-D3's 'largest connected subgraph' evaluation scope."""
        adjacency: dict = {}

        def link(a, b):
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)

        for (f, p) in self.flow_port:
            link(("flow", f), ("port", p))
        for (p, f) in self.port_flow:
            link(("port", p), ("flow", f))
        for (pi, pj) in self.port_port:
            link(("port", pi), ("port", pj))
        seen: set = set()
        stack = [("flow", cf) for cf in self.collective_flows
                 if ("flow", cf) in adjacency]
        while stack:
            vertex = stack.pop()
            if vertex in seen:
                continue
            seen.add(vertex)
            stack.extend(adjacency.get(vertex, ()))
        return seen


def _grouped(pairs: Iterable[tuple]) -> dict:
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


class _Adjacency:
    """Neighbour lists over a :class:`ProvenanceGraph`'s edge dicts and
    pause events, each in its source's order."""

    __slots__ = ("sources", "sizes", "ports_of_flow", "flows_at_port",
                 "waiting_at_port", "downstream", "pause_senders")

    def __init__(self, sources: tuple) -> None:
        #: what the lists were built from, and how big it was then
        self.sources = sources
        self.sizes = tuple(map(len, sources))
        flow_port, port_flow, port_port, pause_events = sources
        self.ports_of_flow = _grouped(flow_port)
        self.waiting_at_port = _grouped((p, f) for f, p in flow_port)
        self.flows_at_port = _grouped(port_flow)
        self.downstream = _grouped(port_port)
        self.pause_senders = _grouped((e.victim, e.sender)
                                      for e in pause_events)


@lru_cache(maxsize=4096)
def _port_ref(node: str, port: int) -> PortRef:
    """One shared instance per port: dict probes on a key that *is* the
    stored key skip PortRef's Python-level ``__eq__``."""
    return PortRef(node, port)


class ProvenanceAccumulator:
    """The fold half of :func:`build_provenance`: one report at a time.

    Merging is a per-edge maximum — commutative, associative and
    idempotent — so folding each report once on arrival and taking a
    :meth:`snapshot` equals :func:`build_provenance` over the same
    reports in the same order, dict insertion order included (hence the
    float summation order of Eqs. 1-3).  The two derivations that read
    the *whole* collection (pause victims, port-port weights: their
    denominators grow with every meter) are redone per snapshot on a
    shallow copy and never written back here.
    """

    def __init__(self, collective_flows: Iterable[FlowKey],
                 pfc_xoff_bytes: Bytes,
                 window_start: Optional[float] = None) -> None:
        self.graph = ProvenanceGraph(
            collective_flows=set(collective_flows))
        self.pfc_xoff_bytes = pfc_xoff_bytes
        self.window_start = window_start
        #: (switch, ingress, egress) -> bytes, for port-port weights
        self.meters: dict[tuple[str, int, int], float] = {}
        self._seen_pauses: set[tuple] = set()
        #: flows observed transiting each reported port in the window
        self.port_window_flows: dict[PortRef, set[FlowKey]] = {}

    def fold(self, report: SwitchReport) -> None:
        """Merge one report (edge-wise maximum; see the class note)."""
        window_start = self.window_start
        if window_start is not None and report.time < window_start:
            return
        graph = self.graph
        flows = graph.flows
        pairwise, port_flow, flow_port = (
            graph.pairwise, graph.port_flow, graph.flow_port)
        switch = report.switch_id
        for entry in report.ports:
            port = _port_ref(switch, entry.port)
            graph.ports.add(port)
            graph.qdepth[port] = max(graph.qdepth.get(port, 0),
                                     entry.qdepth_pkts)
            if entry.paused:
                graph.paused_ports.add(port)
            #: w(f_i, p) terms per waiting flow, in telemetry order
            waits: dict[FlowKey, list[float]] = {}
            for (fi, fj), weight in entry.wait_weights.items():
                key = (port, fi, fj)
                pairwise[key] = max(pairwise.get(key, 0.0), weight)
                flows.update((fi, fj))
                waits.setdefault(fi, []).append(weight)
            total_pkts = entry.total_window_pkts()
            congested = total_pkts > 0 and entry.qdepth_pkts > 0
            for flow, count in entry.flow_pkts.items():
                flows.add(flow)
                if congested:
                    weight = count / total_pkts * entry.qdepth_pkts
                    key = (port, flow)
                    port_flow[key] = max(port_flow.get(key, 0.0), weight)
            # e(f, p): a flow waits at the port if other traffic queued
            # ahead of it, if its packets sit in the queue, or if the
            # port is paused while the flow transits it
            self.port_window_flows.setdefault(port, set()).update(
                entry.flow_pkts)
            waiting_candidates = set(entry.inqueue_flow_pkts)
            waiting_candidates.update(waits)
            if entry.paused:
                waiting_candidates.update(entry.flow_pkts)
            for flow in waiting_candidates:
                flows.add(flow)
                key = (flow, port)
                flow_port[key] = max(flow_port.get(key, 0.0),
                                     sum(waits.get(flow, ())))
        meters = self.meters
        for (inp, out), value in report.port_meters.items():
            key = (switch, inp, out)
            meters[key] = max(meters.get(key, 0.0), value)
        for pause in report.pause_received + report.pause_sent:
            dedup = (pause.time, pause.sender, pause.victim)
            if dedup in self._seen_pauses:
                continue
            self._seen_pauses.add(dedup)
            if window_start is not None and pause.time < window_start:
                continue
            graph.pause_events.append(pause)
            if pause.buffer_bytes_at_send < self.pfc_xoff_bytes:
                graph.ungrounded_pause_sources.add(pause.sender)
        for flow in report.ttl_drops:
            graph.ttl_drop_flows.add(flow)
            flows.add(flow)

    def snapshot(self) -> ProvenanceGraph:
        """The finalised graph over everything folded so far; shares
        nothing mutable with the accumulator."""
        return self.finalize(ProvenanceGraph(**{
            f.name: copy(getattr(self.graph, f.name))
            for f in fields(ProvenanceGraph) if f.init}))

    def finalize(self, graph: ProvenanceGraph) -> ProvenanceGraph:
        """Derive pause-victim edges and port-port weights into
        ``graph`` (the accumulator's own graph, or a copy of it)."""
        graph.pause_events.sort(key=lambda e: e.time)
        _attach_pause_victims(graph, self.port_window_flows)
        _build_port_port_edges(graph, self.meters)
        return graph


def build_provenance(reports: Iterable[SwitchReport],
                     collective_flows: Iterable[FlowKey],
                     pfc_xoff_bytes: Bytes,
                     window_start: Optional[float] = None
                     ) -> ProvenanceGraph:
    """Assemble the provenance graph from a set of switch reports.

    Duplicate telemetry (the same port reported by several polls in one
    burst) is merged by taking the maximum weight per edge, so repeated
    polling never double-counts congestion.

    ``window_start`` optionally discards telemetry older than the
    anomaly window.
    """
    accumulator = ProvenanceAccumulator(collective_flows, pfc_xoff_bytes,
                                        window_start)
    for report in reports:
        accumulator.fold(report)
    return accumulator.finalize(accumulator.graph)


def _attach_pause_victims(graph: ProvenanceGraph,
                          port_window_flows: dict[PortRef, set[FlowKey]]
                          ) -> None:
    """Give flows halted by PFC an e(f, p) edge at the victim port.

    A pause's victim may be a port whose queue had drained by report
    time (no live in-queue entries), or a host NIC (hosts report no
    telemetry at all).  Both still block the flows transiting them:
    flows observed at the port within the telemetry window, and — for a
    host-side victim — every flow originating at that host.
    """
    if not graph.pause_events:
        return
    by_source: dict[str, list[FlowKey]] = {}
    for flow in graph.flows | graph.collective_flows:
        by_source.setdefault(flow.src, []).append(flow)
    # a victim paused again adds nothing new: once per victim, in the
    # order the pauses first name it
    for victim in dict.fromkeys(e.victim for e in graph.pause_events):
        graph.ports.add(victim)
        blocked = set(port_window_flows.get(victim, ()))
        blocked.update(by_source.get(victim.node, ()))
        for flow in blocked:
            graph.flows.add(flow)
            graph.flow_port.setdefault((flow, victim), 0.0)


def _build_port_port_edges(graph: ProvenanceGraph,
                           meters: dict[tuple[str, int, int], float]) -> None:
    """Turn pause causality + traffic meters into weighted e(p_i, p_j)."""
    #: (switch, ingress) -> [(egress, bytes)] and (switch, egress) ->
    #: [bytes], both in meter order (the denominators' summation order)
    fed_by: dict[tuple[str, int], list[tuple[int, float]]] = {}
    into: dict[tuple[str, int], list[float]] = {}
    for (switch, inp, out), value in meters.items():
        into.setdefault((switch, out), []).append(value)
        if value > 0:
            fed_by.setdefault((switch, inp), []).append((out, value))
    # repeated PAUSEs over one link yield the same weights: once per
    # (halted egress on switch A, pausing ingress on switch B)
    for upstream, sender in dict.fromkeys(
            (e.victim, e.sender) for e in graph.pause_events):
        graph.ports.add(upstream)
        for out, value in fed_by.get((sender.node, sender.port), ()):
            denominator = sum(into[(sender.node, out)])
            if denominator <= 0:
                continue
            downstream = PortRef(sender.node, out)
            graph.port_port[(upstream, downstream)] = max(
                graph.port_port.get((upstream, downstream), 0.0),
                value / denominator)
            graph.ports.add(downstream)
