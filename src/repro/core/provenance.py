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

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Optional

from repro.core.units import Bytes
from repro.simnet.packet import FlowKey
from repro.simnet.pfc import PauseEvent, PortRef
from repro.simnet.telemetry import SwitchReport

_pause_time = attrgetter("time")


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
    #: adjacency over the edge dicts and pause events
    _index: Optional["Adjacency"] = field(
        default=None, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # queries used by diagnosis and rating — O(degree) off an adjacency
    # index; lists keep the dicts' insertion order
    # ------------------------------------------------------------------
    def adjacency(self) -> "Adjacency":
        """The neighbour lists of this graph.

        A graph finalised by a :class:`ProvenanceAccumulator` carries
        the index it was built with.  A hand-filled graph gets one on
        first use, rebuilt when an edge dict or the pause list was
        replaced or changed size."""
        index = self._index
        if index is not None and index.sources is None:
            return index
        sources = (self.flow_port, self.port_flow, self.port_port,
                   self.pause_events, self.pairwise)
        if index is None or index.sizes != tuple(map(len, sources)) \
                or any(a is not b for a, b in zip(sources, index.sources)):
            index = self._index = Adjacency(sources)
        return index

    def ports_of_flow(self, flow: FlowKey) -> list[PortRef]:
        """Ports the flow waits at (its e(f,p) neighbors)."""
        return list(self.adjacency().ports_of_flow.get(flow, ()))

    def flows_at_port(self, port: PortRef) -> list[FlowKey]:
        """Flows contributing to the port's congestion (e(p,f))."""
        return list(self.adjacency().flows_at_port.get(port, ()))

    def waiting_flows_at_port(self, port: PortRef) -> list[FlowKey]:
        """Flows that wait at the port (e(f,p))."""
        return list(self.adjacency().waiting_at_port.get(port, ()))

    def downstream_ports(self, port: PortRef) -> list[PortRef]:
        """PFC causes: ports this port waits on (e(p_i, p_j) targets)."""
        return list(self.adjacency().downstream.get(port, ()))

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
        """Cycles in the PFC-causality edges — the deadlock signature.

        Nearly every graph has none, and a Kahn peel says so without
        importing networkx; a graph that has one is enumerated by
        ``nx.simple_cycles``."""
        if not self.port_port or _acyclic(self.adjacency().downstream):
            return []
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_edges_from(self.port_port.keys())
        return [list(cycle) for cycle in nx.simple_cycles(graph)]


def _acyclic(downstream: dict[PortRef, list[PortRef]]) -> bool:
    """Kahn's algorithm: peel vertices nothing points at until none is
    left (acyclic) or every one left sits on or behind a cycle."""
    indegree = dict.fromkeys(downstream, 0)
    for targets in downstream.values():
        for target in targets:
            indegree[target] = indegree.get(target, 0) + 1
    ready = [port for port, degree in indegree.items() if not degree]
    peeled = 0
    while ready:
        peeled += 1
        for target in downstream.get(ready.pop(), ()):
            indegree[target] -= 1
            if not indegree[target]:
                ready.append(target)
    return peeled == len(indegree)


def _grouped(pairs: Iterable[tuple]) -> dict:
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


class Adjacency:
    """Neighbour lists over a :class:`ProvenanceGraph`'s edge dicts and
    pause events, each in its source's order, plus what the signature
    detectors keep per port."""

    __slots__ = ("sources", "sizes", "ports_of_flow", "flows_at_port",
                 "waiting_at_port", "downstream", "pause_senders",
                 "mutual", "sharing", "rows", "evidence")

    def __init__(self, sources: Optional[tuple] = None) -> None:
        #: the (flow_port, port_flow, port_port, pause_events, pairwise)
        #: a hand-filled graph's lists were built from, and how big they
        #: were then; None on an accumulator's index, which starts
        #: empty, is extended edge by edge and is never re-validated
        self.sources = sources
        self.sizes = tuple(map(len, sources or ()))
        flow_port, port_flow, port_port, pause_events, pairwise = \
            sources or ((), (), (), (), ())
        self.ports_of_flow: dict[FlowKey, list[PortRef]] = \
            _grouped(flow_port)
        self.waiting_at_port: dict[PortRef, list[FlowKey]] = \
            _grouped((p, f) for f, p in flow_port)
        self.flows_at_port: dict[PortRef, list[FlowKey]] = \
            _grouped(port_flow)
        self.downstream: dict[PortRef, list[PortRef]] = \
            _grouped(port_port)
        self.pause_senders: dict[PortRef, list[PortRef]] = _grouped(
            (e.victim, e.sender) for e in pause_events)
        #: per port, the pairwise keys (port, f_i, f_j), f_i != f_j,
        #: that can make collective flows queue behind each other (an
        #: accumulator's lists only those between two collective flows)
        self.mutual: dict[PortRef, list[tuple]] = _grouped(
            (key[0], key) for key in pairwise if key[1] != key[2])
        #: ``diagnosis`` on an accumulator's graph: the by-port pass
        #: its detectors share, and that pass's row and the PFC
        #: evidence per port, which outlive the snapshot (all None on a
        #: hand-filled graph: nothing outlives a call)
        self.sharing: Optional[list] = None
        self.rows: Optional[dict] = None
        self.evidence: Optional[dict] = None


class PreparedReport:
    """One :class:`SwitchReport` digested into the form accumulators
    max-merge: every key built, every weight derived, every waiting-flow
    sum taken once, however many graphs the report lands in."""

    __slots__ = ("time", "switch", "ports", "flows", "meters", "pauses",
                 "ttl_drops")

    def __init__(self, report: SwitchReport) -> None:
        self.time = report.time
        switch = self.switch = report.switch_id
        #: every flow named, in the order a walk of the report meets
        #: them (repeats and all: they go into a set)
        flows = self.flows = []
        #: per port: (port, qdepth, paused, [(edge key, weight)] for
        #: pairwise / e(p,f) / e(f,p), the window's flow_pkts)
        self.ports = []
        for entry in report.ports:
            port = PortRef(switch, entry.port)
            flow_pkts = entry.flow_pkts
            #: w(f_i, p) terms per waiting flow, in telemetry order
            waits: dict[FlowKey, list[float]] = {}
            pairwise = []
            for (fi, fj), weight in entry.wait_weights.items():
                pairwise.append(((port, fi, fj),
                                 weight if weight > 0.0 else 0.0))
                flows += (fi, fj)
                if fi in waits:
                    waits[fi].append(weight)
                else:
                    waits[fi] = [weight]
            flows += flow_pkts
            qdepth = entry.qdepth_pkts if entry.qdepth_pkts > 0 else 0
            total_pkts = sum(flow_pkts.values())
            port_flow = [
                ((port, flow),
                 w if (w := count / total_pkts * qdepth) > 0.0 else 0.0)
                for flow, count in flow_pkts.items()] \
                if total_pkts > 0 and qdepth > 0 else ()
            # e(f, p): a flow waits at the port if other traffic queued
            # ahead of it, if its packets sit in the queue, or if the
            # port is paused while the flow transits it
            waiting = set(entry.inqueue_flow_pkts)
            waiting.update(waits)
            if entry.paused:
                waiting.update(flow_pkts)
            flows += waiting
            flow_port = [
                ((flow, port),
                 w if flow in waits and (w := sum(waits[flow])) > 0.0
                 else 0.0)
                for flow in waiting]
            self.ports.append((port, qdepth, entry.paused, pairwise,
                               port_flow, flow_port, flow_pkts))
        self.meters = [((switch, inp, out), value if value > 0.0 else 0.0)
                       for (inp, out), value in report.port_meters.items()]
        self.pauses = [((pause.time, pause.sender, pause.victim), pause)
                       for pause in report.pause_received + report.pause_sent]
        self.ttl_drops = report.ttl_drops
        flows += self.ttl_drops


class ProvenanceAccumulator:
    """The merge half of :func:`build_provenance`: one report at a time.

    Merging is a per-edge maximum — commutative, associative and
    idempotent — so merging each report once on arrival and taking a
    :meth:`snapshot` equals :func:`build_provenance` over the same
    reports in the same order, dict insertion order included (hence the
    float summation order of Eqs. 1-3).  The two derivations that read
    the *whole* collection (pause victims, port-port weights: their
    denominators grow with every meter) are redone per snapshot on a
    copy and never written back here.
    """

    def __init__(self, collective_flows: Iterable[FlowKey],
                 pfc_xoff_bytes: Bytes,
                 window_start: Optional[float] = None) -> None:
        self.graph = ProvenanceGraph(
            collective_flows=set(collective_flows))
        self.pfc_xoff_bytes = pfc_xoff_bytes
        self.window_start = window_start
        #: e(f,p) / e(p,f) neighbour lists, extended with every new edge
        self.index = Adjacency()
        #: (switch, ingress, egress) -> bytes, for port-port weights,
        #: and its keys both ways round, in first-seen order: by
        #: (switch, egress) a denominator's terms, by (switch, ingress)
        #: what a paused link fed
        self.meters: dict[tuple[str, int, int], float] = {}
        self._into: dict[tuple[str, int], list[tuple]] = {}
        self._fed_by: dict[tuple[str, int], list[tuple]] = {}
        self._seen_pauses: set[tuple] = set()
        #: flows observed transiting each reported port in the window
        self.port_window_flows: dict[PortRef, set[FlowKey]] = {}
        # what the detectors keep per port goes stale with the port:
        # ports reported on since the last snapshot, and the switches a
        # new meter or a new pause was seen at ...
        self._touched_ports: set[PortRef] = set()
        self._touched_nodes: set[str] = set()
        #: ... which reach every pause victim that sits on the node or
        #: was paused from it; a new flow reaches the victims on its
        #: source host
        self._victims_by_node: dict[str, set[PortRef]] = {}
        self._flows_seen = 0
        self._rows: dict[PortRef, tuple] = {}
        self._evidence: dict[PortRef, tuple] = {}
        #: pause victims as of the last finalize: (flow count, flows by
        #: source host), and per victim (what its edges were derived
        #: from, the flows given one, the edges)
        self._by_source: tuple[int, dict] = (-1, {})
        self._blocked: dict[PortRef, tuple] = {}

    def fold(self, report: SwitchReport) -> None:
        """Merge one report (edge-wise maximum; see the class note)."""
        self.merge(PreparedReport(report))

    def merge(self, prepared: PreparedReport) -> None:
        """:meth:`fold` of the report ``prepared`` was made from."""
        window_start = self.window_start
        if window_start is not None and prepared.time < window_start:
            return
        graph = self.graph
        graph.flows.update(prepared.flows)
        collective = graph.collective_flows
        index = self.index
        for (port, qdepth, paused, pairwise_edges, port_flow_edges,
             flow_port_edges, flow_pkts) in prepared.ports:
            graph.ports.add(port)
            self._touched_ports.add(port)
            old = graph.qdepth.get(port)
            if old is None or qdepth > old:
                graph.qdepth[port] = qdepth
            if paused:
                graph.paused_ports.add(port)
            edges = graph.pairwise
            for key, weight in pairwise_edges:
                old = edges.get(key)
                if old is None:
                    edges[key] = weight
                    _, fi, fj = key
                    if fi != fj and fi in collective and fj in collective:
                        index.mutual.setdefault(port, []).append(key)
                elif weight > old:
                    edges[key] = weight
            edges = graph.port_flow
            for key, weight in port_flow_edges:
                old = edges.get(key)
                if old is None:
                    edges[key] = weight
                    index.flows_at_port.setdefault(port, []).append(key[1])
                elif weight > old:
                    edges[key] = weight
            edges = graph.flow_port
            for key, weight in flow_port_edges:
                old = edges.get(key)
                if old is None:
                    edges[key] = weight
                    flow = key[0]
                    index.ports_of_flow.setdefault(flow, []).append(port)
                    index.waiting_at_port.setdefault(port, []).append(flow)
                elif weight > old:
                    edges[key] = weight
            seen = self.port_window_flows.get(port)
            if seen is None:
                seen = self.port_window_flows[port] = set()
            seen.update(flow_pkts)
        if prepared.meters:
            self._touched_nodes.add(prepared.switch)
            meters = self.meters
            for key, value in prepared.meters:
                old = meters.get(key)
                if old is None:
                    meters[key] = value
                    switch, inp, out = key
                    self._into.setdefault((switch, out), []).append(key)
                    self._fed_by.setdefault((switch, inp), []).append(key)
                elif value > old:
                    meters[key] = value
        for dedup, pause in prepared.pauses:
            if dedup in self._seen_pauses:
                continue
            self._seen_pauses.add(dedup)
            if window_start is not None and pause.time < window_start:
                continue
            graph.pause_events.append(pause)
            sender, victim = pause.sender, pause.victim
            if pause.buffer_bytes_at_send < self.pfc_xoff_bytes:
                graph.ungrounded_pause_sources.add(sender)
            self._touched_nodes.add(sender.node)
            for node in (sender.node, victim.node):
                self._victims_by_node.setdefault(node, set()).add(victim)
        if prepared.ttl_drops:
            graph.ttl_drop_flows.update(prepared.ttl_drops)

    def _drop_stale(self) -> None:
        """Forget what the detectors kept about every port whose state
        may have moved since the last snapshot: its own row, and the
        PFC evidence that read it."""
        dirty = self._touched_ports
        victims = self._victims_by_node
        flows = self.graph.flows
        if len(flows) != self._flows_seen and victims:
            self._flows_seen = len(flows)
            self._touched_nodes.update(flow.src for flow in flows)
        for node in self._touched_nodes.intersection(victims):
            dirty.update(victims[node])
        rows, evidence = self._rows, self._evidence
        for port in dirty.intersection(rows):
            del rows[port]
        for port in [port for port, (read, _waits) in evidence.items()
                     if not dirty.isdisjoint(read)]:
            del evidence[port]
        self._touched_ports = set()
        self._touched_nodes = set()

    def snapshot(self) -> ProvenanceGraph:
        """The finalised graph over everything merged so far.  It owns
        the containers :meth:`finalize` writes to and shares the rest
        with the accumulator, so it is good until the next merge."""
        base = self.graph
        graph = ProvenanceGraph(
            collective_flows=base.collective_flows,
            flows=base.flows.copy(), ports=base.ports.copy(),
            flow_port=base.flow_port.copy(), port_flow=base.port_flow,
            pairwise=base.pairwise, qdepth=base.qdepth,
            paused_ports=base.paused_ports,
            ungrounded_pause_sources=base.ungrounded_pause_sources,
            pause_events=base.pause_events.copy(),
            ttl_drop_flows=base.ttl_drop_flows)
        index = Adjacency()
        index.ports_of_flow = self.index.ports_of_flow.copy()
        index.waiting_at_port = self.index.waiting_at_port.copy()
        index.flows_at_port = self.index.flows_at_port
        index.mutual = self.index.mutual
        self._drop_stale()
        return self.finalize(graph, index)

    def finalize(self, graph: ProvenanceGraph,
                 index: Adjacency) -> ProvenanceGraph:
        """Derive pause-victim edges and port-port weights into
        ``graph`` and ``index`` (the accumulator's own, or copies)."""
        graph.pause_events.sort(key=_pause_time)
        if graph.pause_events:
            self._attach_pause_victims(graph, index)
            _build_port_port_edges(graph, index, self.meters, self._into,
                                   self._fed_by)
            index.pause_senders = _grouped(
                (e.victim, e.sender) for e in graph.pause_events)
        index.rows, index.evidence = self._rows, self._evidence
        graph._index = index
        return graph

    def _attach_pause_victims(self, graph: ProvenanceGraph,
                              index: Adjacency) -> None:
        """Give flows halted by PFC an e(f, p) edge at the victim port.

        A pause's victim may be a port whose queue had drained by
        report time (no live in-queue entries), or a host NIC (hosts
        report no telemetry at all).  Both still block the flows
        transiting them: flows observed at the port within the
        telemetry window, and — for a host-side victim — every flow
        originating at that host.

        Flows, window flows and e(f, p) edges only grow, so an unchanged
        count is an unchanged set: the flows by source host are
        regrouped when the flow count moved, and the edges a victim
        gains are derived again when its window flows, its own e(f, p)
        edges or its host's flows moved.  ``index``'s lists are
        replaced, never extended: a snapshot's are the accumulator's.
        """
        if self._by_source[0] != len(graph.flows):
            by_source: dict[str, list[FlowKey]] = {}
            for flow in graph.flows | graph.collective_flows:
                by_source.setdefault(flow.src, []).append(flow)
            self._by_source = (len(graph.flows), by_source)
        by_source = self._by_source[1]
        flow_port = graph.flow_port
        ports_of_flow, waiting_at_port = \
            index.ports_of_flow, index.waiting_at_port
        # a victim paused again adds nothing new: once per victim, in
        # the order the pauses first name it
        for victim in dict.fromkeys(e.victim for e in graph.pause_events):
            graph.ports.add(victim)
            window = self.port_window_flows.get(victim, ())
            inputs = (len(window),
                      len(self.index.waiting_at_port.get(victim, ())),
                      by_source.get(victim.node, ()))
            known = self._blocked.get(victim)
            if known is None or known[0] != inputs:
                blocked = set(window)
                blocked.update(inputs[2])
                # a blocked flow with an edge there is in graph.flows
                added = [flow for flow in blocked
                         if (flow, victim) not in flow_port]
                known = self._blocked[victim] = (inputs, added, dict.fromkeys(
                    [(flow, victim) for flow in added], 0.0))
            _inputs, added, edges = known
            if added:
                graph.flows.update(added)
                flow_port.update(edges)
                for flow in added:
                    ports_of_flow[flow] = [*ports_of_flow.get(flow, ()),
                                           victim]
                waiting_at_port[victim] = [
                    *waiting_at_port.get(victim, ()), *added]


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
    return accumulator.finalize(accumulator.graph, accumulator.index)


def _build_port_port_edges(
        graph: ProvenanceGraph, index: Adjacency,
        meters: dict[tuple[str, int, int], float],
        into: dict[tuple[str, int], list[tuple]],
        fed_by: dict[tuple[str, int], list[tuple]]) -> None:
    """Turn pause causality + traffic meters into weighted e(p_i, p_j).

    ``into`` and ``fed_by`` list the meters' keys per egress and per
    ingress in meter order, the order a denominator's terms are summed
    in."""
    port_port = graph.port_port
    # repeated PAUSEs over one link yield the same weights: once per
    # (halted egress on switch A, pausing ingress on switch B)
    for upstream, sender in dict.fromkeys(
            (e.victim, e.sender) for e in graph.pause_events):
        graph.ports.add(upstream)
        # a PortRef is its (node, port) tuple, the lists' key
        for key in fed_by.get(sender, ()):
            value = meters[key]
            if value <= 0:
                continue
            out = key[2]
            denominator = sum(map(meters.__getitem__,
                                  into[(sender.node, out)]))
            if denominator <= 0:
                continue
            downstream = PortRef(sender.node, out)
            key = (upstream, downstream)
            old = port_port.get(key)
            if old is None:
                index.downstream.setdefault(upstream, []).append(downstream)
            port_port[key] = max(old or 0.0, value / denominator)
            graph.ports.add(downstream)
