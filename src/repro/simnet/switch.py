"""Switch data plane: forwarding, ECN, ingress PFC, telemetry, polling.

The PFC model follows production RoCE switches: each *ingress* port
accounts for the bytes it has buffered anywhere in the switch.  When that
occupancy crosses XOFF the switch emits a PAUSE frame upstream; when it
drains below XON it emits RESUME.  A paused egress port stops serving the
DATA class (control traffic is never paused).

Polling packets (§III-C3) are processed in the data plane: a flow-scoped
poll makes the switch report telemetry for the flow's egress port and —
when that port was recently paused — *chase* the PFC spreading path by
forwarding a chase poll to the pausing downstream switch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.simnet.packet import (
    KIND_POLL,
    PRIO_DATA,
    FlowKey,
    Packet,
    PacketKind,
    make_control_packet,
)
from repro.simnet.pfc import (
    PAUSE_QUANTA_NS,
    PauseEvent,
    PortRef,
    ResumeEvent,
)
from repro.simnet.node import Node
from repro.simnet.port import EgressPort
from repro.simnet.routing import RoutingError
from repro.simnet.telemetry import SwitchTelemetry
from repro.simnet.units import KB

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.network import Network

#: ECN / RED marking at egress queues (drives DCQCN): no mark at or
#: below KMIN, a mark with probability rising to PMAX up to KMAX, and
#: always a mark at or above KMAX
ECN_KMIN_BYTES = 32 * KB
ECN_KMAX_BYTES = 128 * KB
ECN_PMAX = 0.25
#: safety bound on PFC chase recursion
MAX_CHASE_DEPTH = 16


class SwitchNode(Node):
    """A PFC/ECN-capable switch."""

    def __init__(self, network: "Network", node_id: str) -> None:
        super().__init__(network, node_id)
        # hot-path aliases: these objects are created once per network
        # and never replaced, only mutated
        self._routing = network.routing
        self._cfg = network.config
        self.telemetry = SwitchTelemetry(node_id)
        #: bytes buffered in this switch per ingress port (PFC accounting)
        self.ingress_usage: dict[int, int] = {}
        #: ingress ports whose upstream we have paused
        self.upstream_paused: dict[int, bool] = {}
        #: last PAUSE emission per ingress (for quanta refresh)
        self._last_pause_sent: dict[int, float] = {}
        #: forwarding table, flow -> egress port, good for one version
        #: of the routing object (route overrides bump it)
        self._fib: dict[FlowKey, EgressPort] = {}
        self._fib_version = self._routing.version

    # ------------------------------------------------------------------
    # receive / forward
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, ingress_port: int) -> None:
        """One packet-hop: everything a packet costs at this switch up
        to its egress queue runs in this frame (the rare halves — RED
        marking, PAUSE emission, a forwarding-table miss — are calls)."""
        if packet.kind is KIND_POLL \
                and not self._handle_poll(packet, ingress_port):
            return
        dst = packet.dst
        if dst == self.node_id:
            return  # consumed (e.g. chase polls addressed to us)
        packet.ttl -= 1
        if packet.ttl <= 0:
            if packet.flow is not None:
                self.telemetry.on_ttl_drop(packet.flow)
            self.network.count_ttl_drop(self.node_id, packet)
            return
        flow = packet.flow
        routing = self._routing
        if self._fib_version != routing.version:
            self._fib.clear()
            self._fib_version = routing.version
        egress = self._fib.get(flow)
        if egress is None or dst != flow.dst:
            egress = self._route(packet)
            if egress is None:
                return
        if packet.priority is PRIO_DATA:
            qbytes = egress.data_queue_bytes
            if qbytes > ECN_KMIN_BYTES and packet.ecn_capable:
                self._mark_ecn(packet, qbytes)
            # PFC ingress accounting
            usage = self.ingress_usage.get(ingress_port, 0) + packet.size
            self.ingress_usage[ingress_port] = usage
            packet.ingress = ingress_port
            if usage >= self._cfg.pfc_xoff_bytes:
                self._pause_upstream(ingress_port, usage)
            self.telemetry.on_data_enqueue(
                self.sim.now, egress.port_id, flow)
        egress.enqueue(packet)

    def _route(self, packet: Packet) -> Optional[EgressPort]:
        """Forwarding-table miss: ask the routing object, and remember
        the answer for a flow's packets bound for the flow's own
        destination (flow-less packets and any other destination are
        routed per packet).  Returns None (the packet is dropped) when
        there is no route."""
        flow = packet.flow
        try:
            next_hop = self._routing.next_hop(
                self.node_id, flow or self.pseudo_flow(packet.dst),
                dst=packet.dst)
        except RoutingError:
            return None
        egress = self.ports[self.neighbor_port[next_hop]]
        if flow is not None and packet.dst == flow.dst:
            self._fib[flow] = egress
        return egress

    def _mark_ecn(self, packet: Packet, qbytes: int) -> None:
        """RED marking for a queue already above ``ECN_KMIN_BYTES``."""
        if qbytes >= ECN_KMAX_BYTES:
            packet.ecn_marked = True
            return
        probability = ECN_PMAX * (qbytes - ECN_KMIN_BYTES) \
            / (ECN_KMAX_BYTES - ECN_KMIN_BYTES)
        if self.network.rng.random() < probability:
            packet.ecn_marked = True

    # ------------------------------------------------------------------
    # PFC ingress accounting
    # ------------------------------------------------------------------
    def _pause_upstream(self, ingress_port: int, usage: int) -> None:
        """Ingress occupancy is at or above XOFF: send the first PAUSE,
        or refresh it before the victim's pause quanta lapse (sustained
        congestion = sustained pause)."""
        now = self.sim.now
        if not self.upstream_paused.get(ingress_port):
            self.upstream_paused[ingress_port] = True
        elif now - self._last_pause_sent.get(ingress_port, -1e18) \
                < PAUSE_QUANTA_NS / 2:
            return
        self._last_pause_sent[ingress_port] = now
        self._send_pause(ingress_port, usage, genuine=True)

    def on_packet_departed(self, egress_port_id: int,
                           packet: Packet) -> None:
        """Egress-port DATA departure hook (installed at wiring time)."""
        ingress_port = packet.ingress
        if ingress_port is None:
            return
        usage = self.ingress_usage.get(ingress_port, 0) - packet.size
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.check_occupancy(
                self.node_id, ingress_port, "PFC ingress accounting",
                usage)
        self.ingress_usage[ingress_port] = max(0, usage)
        self.telemetry.on_data_departure(
            self.sim.now, ingress_port, egress_port_id,
            packet.flow, packet.size)
        cfg = self._cfg
        if self.upstream_paused.get(ingress_port) \
                and usage <= cfg.pfc_xon_bytes:
            self.upstream_paused[ingress_port] = False
            self._send_resume(ingress_port)

    # ------------------------------------------------------------------
    # PFC frame emission / reception
    # ------------------------------------------------------------------
    def _send_pause(self, ingress_port: int, usage: int,
                    genuine: bool) -> None:
        port = self.ports[ingress_port]
        if port.peer_node_id is None:
            return
        event = PauseEvent(
            time=self.network.sim.now,
            sender=PortRef(self.node_id, ingress_port),
            victim=PortRef(port.peer_node_id, port.peer_port_id),
            buffer_bytes_at_send=usage,
            genuine=genuine,
        )
        self.telemetry.pause_log.sent.append(event)
        self.network.deliver_pause(event, port.delay_ns)

    def _send_resume(self, ingress_port: int) -> None:
        port = self.ports[ingress_port]
        if port.peer_node_id is None:
            return
        event = ResumeEvent(
            time=self.network.sim.now,
            sender=PortRef(self.node_id, ingress_port),
            victim=PortRef(port.peer_node_id, port.peer_port_id),
        )
        self.telemetry.pause_log.resumes_sent.append(event)
        self.network.deliver_resume(event, port.delay_ns)

    def inject_pause(self, ingress_port: int) -> None:
        """Emit a PAUSE with no buffer justification (PFC storm bug)."""
        usage = self.ingress_usage.get(ingress_port, 0)
        self._send_pause(ingress_port, usage, genuine=False)

    def on_pause_frame(self, port_id: int, event: PauseEvent) -> None:
        self.telemetry.pause_log.received.append(event)
        super().on_pause_frame(port_id, event)

    def on_resume_frame(self, port_id: int, event: ResumeEvent) -> None:
        self.telemetry.pause_log.resumes_received.append(event)
        super().on_resume_frame(port_id, event)

    # ------------------------------------------------------------------
    # polling (telemetry collection, §III-C3)
    # ------------------------------------------------------------------
    def _handle_poll(self, packet: Packet, ingress_port: int) -> bool:
        """Report for a polling packet; True when it travels on."""
        payload = packet.payload
        if payload.get("chase") and packet.dst == self.node_id:
            self._handle_chase_poll(packet, ingress_port)
            return False
        # flow-scoped transit poll: report the polled flow's egress port
        flow: FlowKey = payload["flow"]
        poll_id: str = payload["poll_id"]
        try:
            next_hop = self.network.routing.next_hop(self.node_id, flow)
        except RoutingError:
            next_hop = None
        scope: set[int] = set()
        if next_hop is not None:
            scope.add(self.neighbor_port[next_hop])
        self._report_and_chase(scope, poll_id,
                               visited=set(payload.get("visited", ())),
                               depth=int(payload.get("depth", 0)))
        return True

    def _handle_chase_poll(self, packet: Packet, ingress_port: int) -> None:
        payload = packet.payload
        poll_id: str = payload["poll_id"]
        visited = set(payload.get("visited", ()))
        depth = int(payload.get("depth", 0))
        now = self.network.sim.now
        # the chase arrived over the link whose congestion we must explain:
        # scope = egress ports this ingress has been feeding
        scope = set(self.telemetry.egress_ports_fed_by(now, ingress_port))
        self._report_and_chase(scope, poll_id, visited, depth)

    def _report_and_chase(self, scope: set[int], poll_id: str,
                          visited: set[str], depth: int) -> None:
        now = self.network.sim.now
        report = self.telemetry.make_report(
            now, self.ports, scope_ports=scope or None, poll_id=poll_id)
        self.network.submit_report(report)
        if depth >= MAX_CHASE_DEPTH:
            return
        visited = visited | {self.node_id}
        downstreams: set[str] = set()
        for port_idx in scope:
            for pause in self.telemetry.recent_pauses_on_port(now, port_idx):
                downstreams.add(pause.sender.node)
        for downstream in sorted(downstreams - visited):
            self._send_chase_poll(downstream, poll_id, visited, depth + 1)

    def _send_chase_poll(self, downstream: str, poll_id: str,
                         visited: set[str], depth: int) -> None:
        poll = make_control_packet(
            PacketKind.POLL, None, self.node_id, downstream,
            self.network.sim.now,
            payload={
                "chase": True,
                "poll_id": poll_id,
                "visited": tuple(sorted(visited)),
                "depth": depth,
            })
        self.network.count_poll(poll)
        egress = self.port_toward(downstream)
        egress.enqueue(poll)
