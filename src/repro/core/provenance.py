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

from bisect import insort
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

        A view a :class:`ProvenanceAccumulator` hands out carries the
        accumulator's index.  A hand-filled graph gets one on first use,
        rebuilt when an edge dict or the pause list was replaced or
        changed size."""
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

    def background_flows(self) -> set[FlowKey]:
        return self.flows - self.collective_flows

    def port_port_cycles(self) -> list[list[PortRef]]:
        """Cycles in the PFC-causality edges — the deadlock signature.

        Nearly every graph has none, and a Kahn peel says so without
        importing networkx; a graph that has one is enumerated by
        ``nx.simple_cycles``."""
        index = self.adjacency()
        if index.acyclic is None or index.acyclic[0] is not index.downstream:
            index.acyclic = (index.downstream, _acyclic(index.downstream))
        if not self.port_port or index.acyclic[1]:
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
                 "mutual", "acyclic", "rows", "sharing", "stale",
                 "moved_rows", "evidence", "stale_evidence", "groups",
                 "pfc")

    def __init__(self, sources: Optional[tuple] = None) -> None:
        #: the (flow_port, port_flow, port_port, pause_events, pairwise)
        #: a hand-filled graph's lists were built from, and how big they
        #: were then; None on an accumulator's index, which is kept up to
        #: date by the accumulator and is never re-validated
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
        #: (the ``downstream`` it was peeled from, whether it is acyclic)
        self.acyclic: Optional[tuple] = None
        #: what ``diagnosis`` keeps across an accumulator's snapshots
        #: (all None on a hand-filled graph: nothing outlives a call):
        #: the by-port rows with their findings, by port and sorted by
        #: port name, the ports whose row may have moved, and those
        #: whose row did since the PFC detector last looked; the PFC
        #: evidence per port, the ports whose evidence may have moved,
        #: the waits by (type, root names), each group sorted by (flow,
        #: port) name, and the PFC findings in order with the waits each
        #: was built from
        self.rows: Optional[dict] = None
        self.sharing: Optional[list] = None
        self.stale: Optional[set] = None
        self.moved_rows: Optional[set] = None
        self.evidence: Optional[dict] = None
        self.stale_evidence: Optional[set] = None
        self.groups: Optional[dict] = None
        self.pfc: Optional[dict] = None


class PreparedReport:
    """One :class:`SwitchReport` digested into the form accumulators
    max-merge: every key built, every weight derived, every waiting-flow
    sum taken once, however many graphs the report lands in."""

    __slots__ = ("time", "switch", "ports", "flows", "meters", "pauses",
                 "ttl_drops")

    def __init__(self, report: SwitchReport,
                 port_refs: dict[str, dict[int, PortRef]]) -> None:
        self.time = report.time
        switch = self.switch = report.switch_id
        # the owner's PortRef per switch and port, one object each: a
        # PortRef costs more to build than to look up, and an edge key
        # holding the same object compares by identity
        refs = port_refs.get(switch)
        if refs is None:
            refs = port_refs[switch] = {}
        #: every flow named, in the order a walk of the report meets
        #: them (repeats and all: they go into a set)
        flows = self.flows = []
        #: per port: (port, qdepth, paused, [(edge key, weight)] for
        #: pairwise / e(p,f) / e(f,p), the window's flow_pkts)
        self.ports = []
        for entry in report.ports:
            port = refs.get(entry.port)
            if port is None:
                port = refs[entry.port] = PortRef(switch, entry.port)
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
            # port is paused while the flow transits it (the keys, in
            # telemetry order, whatever the hash seed)
            waiting = {**entry.inqueue_flow_pkts, **waits, **flow_pkts} \
                if entry.paused else {**entry.inqueue_flow_pkts, **waits}
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
    float summation order of Eqs. 1-3).

    The derivations that read the *whole* collection — pause victims'
    e(f, p) edges, port-port weights (their denominators grow with
    every meter), the ``downstream`` / ``pause_senders`` lists — are
    kept here next to the merged state they read, apart from it, and a
    snapshot patches only what a merge since the last one moved:

    * a pause later than every known one appends its victim, link and
      sender; an earlier one re-sorts, and re-orders what hangs off
      that order;
    * a victim's edges are derived again when its window flows, its
      own e(f, p) edges or its host's flows moved;
    * a pause sender's port-port edges are derived again when a meter
      or a pause at its node moved, and the weights are re-assembled
      from the kept ones when one moved;
    * a flow's ``ports_of_flow`` list is re-assembled when it gained or
      lost a victim or a merged port.

    The detectors' rows and evidence (:class:`Adjacency`) are marked
    stale for the ports whose inputs a merge or a derivation moved.
    """

    def __init__(self, collective_flows: Iterable[FlowKey],
                 pfc_xoff_bytes: Bytes) -> None:
        self.graph = ProvenanceGraph(
            collective_flows=set(collective_flows))
        self.pfc_xoff_bytes = pfc_xoff_bytes
        #: the PortRefs of the reports :meth:`fold` prepares
        self._port_refs: dict[str, dict[int, PortRef]] = {}
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
        #: flows observed transiting each reported port in the window:
        #: the keys, in first-seen order
        self.port_window_flows: dict[PortRef, dict[FlowKey, int]] = {}
        # what moved since the last snapshot: ports reported on, and
        # the switches a new meter or a new pause was seen at (whose
        # pause senders' port-port terms it moves)
        self._touched_ports: set[PortRef] = set()
        self._touched_nodes: set[str] = set()
        #: the pause victims that sit on each node or were paused from
        #: it, in first-seen order (the keys)
        self._victims_by_node: dict[str, dict[PortRef, None]] = {}
        # ---- the derived layer ----------------------------------------
        #: ``graph.pause_events[:n]`` are in time order
        self._sorted = 0
        #: pause victims, in the order the sorted pauses first name them
        #: (value: that rank), and (victim, sender) links likewise
        self._victims: dict[PortRef, int] = {}
        self._links: dict[tuple[PortRef, PortRef], None] = {}
        #: pause senders by node, and each one's (downstream, weight)
        #: port-port terms
        self._senders_at: dict[str, list[PortRef]] = {}
        self._fed: dict[PortRef, list[tuple[PortRef, float]]] = {}
        #: a link appeared or the links were ranked again
        self._relink = False
        self._port_port: dict[tuple[PortRef, PortRef], float] = {}
        self._downstream: dict[PortRef, list[PortRef]] = {}
        self._pause_senders: dict[PortRef, list[PortRef]] = {}
        #: the flows grouped by source host so far (every collective
        #: flow and every merged one, as of the flow count), and each
        #: host's sorted list of them — replaced, never mutated, when a
        #: flow joins it: a victim's derivation inputs hold the list
        self._grouped: set[FlowKey] = set()
        self._grouped_count = -1
        self._by_source: dict[str, list[FlowKey]] = {}
        #: per victim: (what its edges were derived from, the flows
        #: given one — those with no merged e(f, p) edge there)
        self._blocked: dict[PortRef, tuple] = {}
        #: per flow given a victim edge, those victims in victim order
        self._tails: dict[FlowKey, list[PortRef]] = {}
        #: per port reported on, its (waiting, feeding) flow counts as of
        #: the last look; the paused ports as of the last snapshot; the
        #: ports whose pauses, paused flag or PFC edges a snapshot's
        #: derivations moved (what a PFC chase reads)
        self._sizes: dict[PortRef, tuple[int, int]] = {}
        self._paused: set[PortRef] = set()
        self._pfc_moved: set[PortRef] = set()
        #: the snapshot's entries that differ from the merged ones:
        #: victim e(f, p) edges in victim order, neighbour lists with
        #: the victims' share appended, flows only a victim edge names
        self._victim_edges: dict[tuple[FlowKey, PortRef], float] = {}
        self._ports_of_flow: dict[FlowKey, list[PortRef]] = {}
        self._waiting: dict[PortRef, list[FlowKey]] = {}
        self._victim_flows: set[FlowKey] = set()
        #: the snapshot's index, which carries what the detectors keep
        view = self._view = Adjacency()
        view.rows, view.stale, view.moved_rows = {}, set(), set()
        view.evidence, view.stale_evidence, view.groups = {}, set(), {}

    def fold(self, report: SwitchReport) -> None:
        """Merge one report (edge-wise maximum; see the class note)."""
        self.merge(PreparedReport(report, self._port_refs))

    def merge(self, prepared: PreparedReport) -> None:
        """:meth:`fold` of the report ``prepared`` was made from."""
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
                seen = self.port_window_flows[port] = {}
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
            graph.pause_events.append(pause)
            sender, victim = pause.sender, pause.victim
            if pause.buffer_bytes_at_send < self.pfc_xoff_bytes:
                graph.ungrounded_pause_sources.add(sender)
            self._touched_nodes.add(sender.node)
            for node in (sender.node, victim.node):
                self._victims_by_node.setdefault(node, {})[victim] = None
        if prepared.ttl_drops:
            graph.ttl_drop_flows.update(prepared.ttl_drops)

    def snapshot(self) -> ProvenanceGraph:
        """The finalised graph over everything merged so far.  It shares
        its containers with the accumulator — the three that carry
        victim edges as one dict merge of the merged and the derived
        entries — so it is good until the next merge."""
        graph, view = self.graph, self._view
        grown, arrived = self._look_at_touched() \
            if self._tails or view.sharing is not None else ((), ())
        ranked, reordered = self._admit_pauses() \
            if len(graph.pause_events) > self._sorted else ((), False)
        rederived = self._derive_victims(ranked, reordered, arrived) \
            if self._victims else ()
        if self._relink or self._touched_nodes:
            self._derive_links()
        self._mark_stale(grown, rederived)
        index = self.index
        view.ports_of_flow = {**index.ports_of_flow, **self._ports_of_flow} \
            if self._ports_of_flow else index.ports_of_flow
        view.waiting_at_port = {**index.waiting_at_port, **self._waiting} \
            if self._waiting else index.waiting_at_port
        view.flows_at_port, view.mutual = index.flows_at_port, index.mutual
        view.downstream = self._downstream
        view.pause_senders = self._pause_senders
        flows = graph.flows
        if not self._victim_flows <= flows:
            flows = flows | self._victim_flows
        snapshot = ProvenanceGraph(
            collective_flows=graph.collective_flows, flows=flows,
            ports=graph.ports,
            flow_port={**graph.flow_port, **self._victim_edges}
            if self._victim_edges else graph.flow_port,
            port_flow=graph.port_flow, port_port=self._port_port,
            pairwise=graph.pairwise, qdepth=graph.qdepth,
            paused_ports=graph.paused_ports,
            ungrounded_pause_sources=graph.ungrounded_pause_sources,
            pause_events=graph.pause_events,
            ttl_drop_flows=graph.ttl_drop_flows)
        snapshot._index = view
        return snapshot

    def _admit_pauses(self) -> tuple[list[PortRef], bool]:
        """Sort the pauses merged since the last snapshot in.  Pauses no
        earlier than every known one append their victims, links and
        senders; an earlier one re-sorts them all and ranks every victim
        and link again.  Returns the victims (re-)ranked, and whether
        the pauses were re-sorted."""
        pauses = self.graph.pause_events
        known = self._sorted
        fresh = pauses[known:]
        fresh.sort(key=_pause_time)
        reordered = bool(known) and fresh[0].time < pauses[known - 1].time
        if reordered:
            pauses.sort(key=_pause_time)   # stable: ties keep arrival
            fresh = pauses
            self._victims, self._links = {}, {}
            self._pause_senders = {}
            self._relink = True
        else:
            pauses[known:] = fresh
        self._sorted = len(pauses)
        victims, links, fed = self._victims, self._links, self._fed
        ranked = []
        for pause in fresh:
            victim, sender = pause.victim, pause.sender
            if victim not in victims:
                victims[victim] = len(victims)
                ranked.append(victim)
                self.graph.ports.add(victim)
            if (victim, sender) not in links:
                links[victim, sender] = None
                self._relink = True
                if sender not in fed:
                    # its node was touched by the pause: derived below
                    fed[sender] = []
                    self._senders_at.setdefault(sender.node, []).append(
                        sender)
            self._pause_senders.setdefault(victim, []).append(sender)
        if self._view.sharing is not None:
            # a new pause may make its sender ungrounded: every victim
            # it paused reads that
            moved = self._pfc_moved
            for pause in fresh:
                moved.update(self._victims_by_node[pause.sender.node])
        return ranked, reordered

    def _look_at_touched(self) -> tuple[set[PortRef], set[FlowKey]]:
        """The ports reported on whose waiting or feeding flows grew,
        and the flows that gained a merged e(f, p) edge there; a port
        newly paused moves its PFC evidence."""
        index, sizes = self.index, self._sizes
        waiting_at, flows_at = index.waiting_at_port, index.flows_at_port
        grown, arrived = set(), set()
        for port in self._touched_ports:
            waiting = waiting_at.get(port, ())
            size = (len(waiting), len(flows_at.get(port, ())))
            before = sizes.get(port, (0, 0))
            if size != before:
                grown.add(port)
                arrived.update(waiting[before[0]:])
                sizes[port] = size
        paused = self.graph.paused_ports
        if len(paused) != len(self._paused):
            fresh = paused - self._paused
            self._pfc_moved |= fresh
            self._paused |= fresh
        return grown, arrived

    def _derive_victims(self, ranked: list[PortRef], reordered: bool,
                        arrived: Iterable[FlowKey]) -> list[PortRef]:
        """Give flows halted by PFC an e(f, p) edge at the victim port.

        A pause's victim may be a port whose queue had drained by
        report time (no live in-queue entries), or a host NIC (hosts
        report no telemetry at all).  Both still block the flows
        transiting them: flows observed at the port within the
        telemetry window, and — for a host-side victim — every flow
        originating at that host.

        Flows, window flows and e(f, p) edges only grow, so an unchanged
        count is an unchanged set: when the flow count moved, the flows
        not grouped yet join their source hosts' lists, and a victim is
        derived again only when its window flows, its own e(f, p) edges
        or its host's flows moved — one newly ranked, reported on, or on
        a host a new flow came from.  Returns the victims derived again.
        """
        graph, index = self.graph, self.index
        victims, blocked_by = self._victims, self._blocked
        candidates = [*ranked, *(port for port in self._touched_ports
                                 if port in victims)]
        by_source = self._by_source
        if self._grouped_count != len(graph.flows):
            fresh = graph.flows - self._grouped
            if self._grouped_count < 0:
                fresh |= graph.collective_flows
            self._grouped_count = len(graph.flows)
            self._grouped |= fresh
            joined: dict[str, list[FlowKey]] = {}
            for flow in fresh:
                joined.setdefault(flow.src, []).append(flow)
            for host, flows in joined.items():
                # a set's order moves with the hash seed: sorted
                by_source[host] = sorted([*by_source.get(host, ()), *flows])
            # the hosts a new flow came from, in victim order
            for node, on_node in self._victims_by_node.items():
                if node in joined:
                    candidates += on_node
        tails = self._tails
        # a flow given a victim edge is re-listed when it gains a
        # merged port, or when the victims were ranked again
        moved = set(tails) if reordered else tails.keys() & arrived
        rank = victims.__getitem__
        if reordered:
            for tail in tails.values():
                tail.sort(key=rank)
        rederived = []
        flow_port = graph.flow_port
        for victim in dict.fromkeys(candidates):
            window = self.port_window_flows.get(victim, ())
            merged = index.waiting_at_port.get(victim, ())
            inputs = (len(window), len(merged),
                      by_source.get(victim.node, ()))
            known = blocked_by.get(victim)
            if known is not None and known[0] == inputs:
                continue
            # window flows first, then the host's: an order no hash
            # seed moves
            blocked = dict.fromkeys([*window, *inputs[2]])
            # a blocked flow with an edge there is in graph.flows
            added = [flow for flow in blocked
                     if (flow, victim) not in flow_port]
            blocked_by[victim] = (inputs, added)
            rederived.append(victim)
            if added:
                self._waiting[victim] = [*merged, *added]
            else:
                self._waiting.pop(victim, None)
            if known is None and not reordered:
                # ranked after every victim ranked before: last in line
                for flow in added:
                    tails.setdefault(flow, []).append(victim)
                moved.update(added)
                continue
            before = set(known[1]) if known is not None else set()
            for flow in before.symmetric_difference(added):
                tail = tails.setdefault(flow, [])
                if flow in before:
                    tail.remove(victim)
                else:
                    insort(tail, victim, key=rank)
                moved.add(flow)
        for flow in moved:
            tail = tails.get(flow)
            if tail:
                self._ports_of_flow[flow] = [
                    *index.ports_of_flow.get(flow, ()), *tail]
            else:
                tails.pop(flow, None)
                self._ports_of_flow.pop(flow, None)
        # every newly ranked victim was derived, first
        if reordered or len(rederived) > len(ranked):
            # a victim ranked before moved: its edges go back in line
            self._victim_edges = {
                (flow, victim): 0.0 for victim in victims
                for flow in blocked_by[victim][1]}
        elif ranked:        # only the newly ranked: theirs go last
            self._victim_edges.update(
                ((flow, victim), 0.0) for victim in ranked
                for flow in blocked_by[victim][1])
        for victim in rederived:
            # a flow leaves a victim's list only once merged there
            self._victim_flows.update(blocked_by[victim][1])
        return rederived

    def _derive_links(self) -> None:
        """Turn pause causality + traffic meters into weighted
        e(p_i, p_j): derive again the terms of every pause sender whose
        node a meter or a pause moved, and re-assemble the weights in
        link order when a sender's terms moved.

        A term is ``meter(p_i, p_j) / Σ_k meter(p_k, p_j)``, summed in
        meter order; repeated PAUSEs over one link yield the same
        weights: once per (halted egress on switch A, pausing ingress on
        switch B)."""
        fed = self._fed
        moved, self._relink = self._relink, False
        for node in self._touched_nodes.intersection(self._senders_at):
            for sender in self._senders_at[node]:
                terms = self._sender_terms(sender)
                if fed[sender] != terms:
                    fed[sender] = terms
                    moved = True
        if not moved:
            return
        before = self._downstream
        port_port: dict[tuple[PortRef, PortRef], float] = {}
        downstream: dict[PortRef, list[PortRef]] = {}
        ports = self.graph.ports
        for upstream, sender in self._links:
            for target, weight in fed[sender]:
                key = (upstream, target)
                old = port_port.get(key)
                if old is None:
                    downstream.setdefault(upstream, []).append(target)
                    port_port[key] = weight
                    ports.add(target)
                elif weight > old:
                    port_port[key] = weight
        if downstream == before:
            downstream = before     # what a chase or a peel reads held
        elif self._view.sharing is not None:
            # a chase reads the lists, not the weights
            self._pfc_moved.update(
                port for port in downstream.keys() | before.keys()
                if downstream.get(port) != before.get(port))
        self._port_port, self._downstream = port_port, downstream

    def _sender_terms(self, sender: PortRef) -> list[tuple[PortRef, float]]:
        """The (downstream, weight) terms a pause from ``sender`` yields,
        in meter order."""
        meters, into = self.meters, self._into
        terms = []
        # a PortRef is its (node, port) tuple, the lists' key
        for key in self._fed_by.get(sender, ()):
            value = meters[key]
            if value <= 0:
                continue
            out = key[2]
            denominator = sum(map(meters.__getitem__,
                                  into[(sender.node, out)]))
            if denominator > 0:
                terms.append((PortRef(sender.node, out),
                              value / denominator))
        return terms

    def _mark_stale(self, grown: Iterable[PortRef],
                    rederived: Iterable[PortRef]) -> None:
        """Mark stale what the detectors kept about every port whose
        state may have moved since the last snapshot: the row of every
        port reported on or derived again, and the PFC evidence that
        read a port whose pauses, paused flag or PFC edges moved, or the
        flows of a port whose flows moved."""
        view = self._view
        if view.sharing is not None:    # the detectors ran on it
            view.stale |= self._touched_ports
            view.stale.update(rederived)
            moved = self._pfc_moved
            flowed = {*grown, *rederived}
            if moved or flowed:
                view.stale_evidence.update(
                    port for port, (read, _, _, _, flows_of)
                    in view.evidence.items()
                    if not moved.isdisjoint(read)
                    or not flowed.isdisjoint(flows_of))
        self._pfc_moved = set()
        self._touched_ports = set()
        self._touched_nodes = set()


def build_provenance(reports: Iterable[SwitchReport],
                     collective_flows: Iterable[FlowKey],
                     pfc_xoff_bytes: Bytes) -> ProvenanceGraph:
    """Assemble the provenance graph from a set of switch reports.

    Duplicate telemetry (the same port reported by several polls in one
    burst) is merged by taking the maximum weight per edge, so repeated
    polling never double-counts congestion.
    """
    accumulator = ProvenanceAccumulator(collective_flows, pfc_xoff_bytes)
    for report in reports:
        accumulator.fold(report)
    return accumulator.snapshot()
