"""The assembled network: topology + nodes + wiring + accounting.

:class:`Network` is the façade the collective runtime, the diagnosis
systems and the experiments all talk to.  It owns the simulator clock,
instantiates hosts/switches/ports from a :class:`Topology`, delivers PFC
frames, forwards telemetry reports to the registered analyzer sink, and
keeps the byte counters from which the paper's processing/bandwidth
overhead figures (Fig. 10) are computed.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.units import Bytes, Nanoseconds
from repro.simnet.engine import Simulator
from repro.simnet.flow import RdmaFlow
from repro.simnet.host import HostNode
from repro.simnet.packet import (
    MTU_PAYLOAD_BYTES,
    FlowKey,
    Packet,
    PacketKind,
    intern_flow_key,
    make_control_packet,
)
from repro.simnet.pfc import PauseEvent, ResumeEvent
from repro.simnet.port import EgressPort
from repro.simnet.routing import EcmpRouting
from repro.simnet.switch import SwitchNode
from repro.simnet.telemetry import SwitchReport
from repro.simnet.topology import NodeKind, Topology
from repro.simnet.units import KB, ms, us

ReportSink = Callable[[SwitchReport], None]

#: the default sender window is this multiple of the estimated max BDP
BDP_MULTIPLIER = 1.5
#: cap on host NIC data queue (backpressures the sender transport)
HOST_QUEUE_CAP_BYTES: Bytes = 512 * KB
#: management-plane latency from switch controller to analyzer
REPORT_DELAY_NS: Nanoseconds = us(10)


@dataclass(slots=True)
class NetworkConfig:
    """The data-plane knobs a scenario, figure or example sets."""

    #: receiver coalescing: ACK every N data packets (and always the last)
    ack_every: int = 1
    #: sender byte window; None = BDP_MULTIPLIER x estimated max BDP
    window_bytes: Optional[Bytes] = None
    #: PFC ingress thresholds (shallow commodity buffers, §II-A)
    pfc_xoff_bytes: Bytes = 256 * KB
    pfc_xon_bytes: Bytes = 128 * KB
    #: go-back-N retransmission timeout; None disables loss recovery
    rto_ns: Optional[Nanoseconds] = ms(20)
    seed: int = 1


class Network:
    """A running network instance."""

    def __init__(self, topology: Topology,
                 config: Optional[NetworkConfig] = None,
                 sanitize: Optional[bool] = None) -> None:
        self.topology = topology
        self.config = config or NetworkConfig()
        self.sim = Simulator(sanitize=sanitize)
        self.rng = random.Random(self.config.seed)
        self.routing = EcmpRouting(topology, seed=self.config.seed)

        self.hosts: dict[str, HostNode] = {}
        self.switches: dict[str, SwitchNode] = {}
        self._build_nodes()
        self._wire_links()

        self.flows: dict[FlowKey, RdmaFlow] = {}
        self._flow_port_counter = itertools.count(10_000)
        self._poll_counter = itertools.count()

        # overhead accounting (Fig. 10)
        self.poll_packets = 0
        self.poll_bytes = 0
        self.notify_packets = 0
        self.notify_bytes = 0
        self.report_count = 0
        self.report_bytes = 0
        self.ttl_drops = 0

        self.collected_reports: list[SwitchReport] = []
        self._report_sink: ReportSink = self.collected_reports.append
        self._window_bytes_cache: Optional[int] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_nodes(self) -> None:
        for node_id, kind in self.topology.nodes.items():
            if kind is NodeKind.HOST:
                self.hosts[node_id] = HostNode(self, node_id)
            else:
                self.switches[node_id] = SwitchNode(self, node_id)

    def node(self, node_id: str):
        return self.hosts.get(node_id) or self.switches[node_id]

    def _wire_links(self) -> None:
        port_counters = {node_id: itertools.count()
                         for node_id in self.topology.nodes}
        for link in self.topology.links:
            node_a, node_b = self.node(link.a), self.node(link.b)
            idx_a = next(port_counters[link.a])
            idx_b = next(port_counters[link.b])
            port_a = self._make_port(node_a, idx_a, link)
            port_b = self._make_port(node_b, idx_b, link)
            port_a.peer_node_id, port_a.peer_port_id = link.b, idx_b
            port_b.peer_node_id, port_b.peer_port_id = link.a, idx_a
            port_a.deliver_fn = node_b.receive
            port_b.deliver_fn = node_a.receive
            node_a.attach_port(port_a, link.b)
            node_b.attach_port(port_b, link.a)

    def _make_port(self, node, index: int, link) -> EgressPort:
        is_host = isinstance(node, HostNode)
        cap = HOST_QUEUE_CAP_BYTES if is_host else None
        port = EgressPort(self.sim, node.node_id, index,
                          link.bandwidth_bps, link.delay_ns,
                          data_queue_cap_bytes=cap)
        if is_host:
            port.on_space = node.on_port_space
        else:
            # functools.partial dispatches in C — this hook runs once
            # per DATA packet per switch hop (the port calls it for no
            # other class)
            port.on_departure = functools.partial(
                node.on_packet_departed, index)
        return port

    # ------------------------------------------------------------------
    # flows
    # ------------------------------------------------------------------
    def effective_window_bytes(self) -> int:
        if self.config.window_bytes is not None:
            return self.config.window_bytes
        if self._window_bytes_cache is None:
            max_bw = max(l.bandwidth_bps for l in self.topology.links)
            # worst-case propagation RTT across the topology
            hosts = self.topology.hosts
            max_hops = 0
            for host in hosts:
                dist = self.routing._dist[host]
                far = max(dist.get(other, 0) for other in hosts)
                max_hops = max(max_hops, far)
            delay = max(l.delay_ns for l in self.topology.links)
            rtt_ns = 2 * max_hops * delay
            bdp = max_bw / 8.0 * rtt_ns / 1e9
            self._window_bytes_cache = max(
                MTU_PAYLOAD_BYTES * 4, int(BDP_MULTIPLIER * bdp))
        return self._window_bytes_cache

    def new_flow_key(self, src: str, dst: str) -> FlowKey:
        port = next(self._flow_port_counter)
        # 4791 = RoCEv2 UDP port; interned so flow-keyed dict lookups
        # take the identity fast path
        return intern_flow_key(FlowKey(src, dst, port, 4791))

    def create_flow(self, src: str, dst: str, size_bytes: Bytes,
                    start_time: float = 0.0,
                    key: Optional[FlowKey] = None,
                    on_sender_complete: Optional[Callable] = None,
                    on_receive_complete: Optional[Callable] = None
                    ) -> RdmaFlow:
        """Create (but do not start) a flow plus its receiver."""
        if src not in self.hosts or dst not in self.hosts:
            raise KeyError(f"flows run host-to-host, got {src!r}->{dst!r}")
        if src == dst:
            raise ValueError("flow source and destination must differ")
        flow_key = key or self.new_flow_key(src, dst)
        flow = RdmaFlow(self, flow_key, size_bytes, start_time,
                        on_sender_complete=on_sender_complete)
        self.hosts[dst].expect_flow(flow_key, size_bytes,
                                    on_receive_complete=on_receive_complete)
        return flow

    def register_flow(self, flow: RdmaFlow) -> None:
        self.flows[flow.key] = flow

    # ------------------------------------------------------------------
    # PFC frame delivery (link-local, bypasses queues)
    # ------------------------------------------------------------------
    def deliver_pause(self, event: PauseEvent, delay_ns: Nanoseconds) -> None:
        victim = self.node(event.victim.node)
        self.sim.post(delay_ns, victim.on_pause_frame,
                      event.victim.port, event)

    def deliver_resume(self, event: ResumeEvent, delay_ns: Nanoseconds) -> None:
        victim = self.node(event.victim.node)
        self.sim.post(delay_ns, victim.on_resume_frame,
                      event.victim.port, event)

    # ------------------------------------------------------------------
    # telemetry plumbing and overhead accounting
    # ------------------------------------------------------------------
    def set_report_sink(self, sink: ReportSink) -> None:
        self._report_sink = sink

    @property
    def report_sink(self) -> ReportSink:
        """The currently installed sink (so recorders can chain onto it)."""
        return self._report_sink

    def submit_report(self, report: SwitchReport) -> None:
        self.report_count += 1
        self.report_bytes += report.size_bytes
        self.sim.post(REPORT_DELAY_NS,
                      self._report_sink, report)

    def poll_flow(self, flow_key: FlowKey) -> str:
        """Inject a flow-scoped polling packet from the flow's source
        host.  Returns the poll id."""
        src = flow_key.src
        poll_id = f"{src}#{next(self._poll_counter)}"
        poll = make_control_packet(
            PacketKind.POLL, flow_key, src, flow_key.dst, self.sim.now,
            payload={"flow": flow_key, "poll_id": poll_id, "depth": 0})
        self.count_poll(poll)
        self.hosts[src].send_packet(poll)
        return poll_id

    def send_notify(self, src: str, dst: str, payload: dict) -> None:
        """Host-to-host notification packet (Fig. 6), highest priority."""
        notify = make_control_packet(
            PacketKind.NOTIFY, None, src, dst, self.sim.now, payload=payload)
        self.notify_packets += 1
        self.notify_bytes += notify.size
        self.hosts[src].send_packet(notify)

    def count_poll(self, packet: Packet) -> None:
        self.poll_packets += 1
        self.poll_bytes += packet.size

    def count_ttl_drop(self, node_id: str, packet: Packet) -> None:
        self.ttl_drops += 1

    @property
    def bandwidth_overhead_bytes(self) -> int:
        """Polls + notifications + telemetry reports (Fig. 10b)."""
        return self.poll_bytes + self.notify_bytes + self.report_bytes

    @property
    def processing_overhead_bytes(self) -> int:
        """Telemetry data volume collected for diagnosis (Fig. 10a)."""
        return self.report_bytes

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def run(self, until: Optional[Nanoseconds] = None,
            max_events: Optional[int] = None) -> float:
        return self.sim.run(until=until, max_events=max_events)

    def run_until_quiet(self, max_time: Optional[float] = None) -> float:
        """Run until the event heap drains (or ``max_time``)."""
        return self.sim.run(until=max_time)
