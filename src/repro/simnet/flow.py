"""RDMA-like message flows: sender transport and receiver state.

A flow carries one message of ``size_bytes`` from a source host to a
destination host.  The sender paces packets at the DCQCN rate, bounded by
a byte window (so memory and in-flight state stay bounded); the receiver
ACKs (coalescible) and emits CNPs for ECN-marked arrivals.  ACKs carry
the data packet's send timestamp, so every ACK yields an end-to-end RTT
sample — the signal both Vedrfolnir's and Hawkeye's detection triggers
consume (§III-C2, §IV-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.units import Bytes, Nanoseconds
from repro.simnet.dcqcn import DcqcnState
from repro.simnet.packet import (
    HEADER_BYTES,
    KIND_ACK,
    MTU_PAYLOAD_BYTES,
    FlowKey,
    Packet,
    PacketKind,
    make_control_packet,
    make_data_packet,
)
from repro.simnet.units import SEC, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.host import HostNode
    from repro.simnet.network import Network

#: NP-side minimum spacing between CNPs for one flow (DCQCN)
CNP_INTERVAL_NS: Nanoseconds = us(50)

#: observer signature: (flow, rtt_ns, ack_seq, now)
RttObserver = Callable[["RdmaFlow", float, int, float], None]


@dataclass
class FlowStats:
    """Counters exposed for tests and diagnosis."""

    packets_sent: int = 0
    packets_acked: int = 0
    bytes_acked: int = 0
    cnps_received: int = 0
    start_time: float = 0.0
    first_send_time: Optional[float] = None
    complete_time: Optional[float] = None
    rtt_samples: int = 0
    max_rtt_ns: Nanoseconds = 0.0
    retransmissions: int = 0


class RdmaFlow:
    """Sender side of one message flow."""

    def __init__(self, network: "Network", key: FlowKey, size_bytes: Bytes,
                 start_time: float,
                 on_sender_complete: Optional[Callable] = None) -> None:
        if size_bytes <= 0:
            raise ValueError(f"flow size must be positive: {size_bytes}")
        self.network = network
        self.key = key
        self.size_bytes = size_bytes
        self.num_packets = max(1, math.ceil(size_bytes / MTU_PAYLOAD_BYTES))
        #: payload of the last packet (every other one carries the MTU)
        self._last_payload = size_bytes \
            - MTU_PAYLOAD_BYTES * (self.num_packets - 1)
        self.on_sender_complete = on_sender_complete
        self.stats = FlowStats(start_time=start_time)
        self.rtt_observers: list[RttObserver] = []

        host = network.hosts[key.src]
        self.host: "HostNode" = host
        self.port = host.ports[0]
        self.dcqcn = DcqcnState(network.sim, self.port.bandwidth_bps)

        self._next_seq = 0
        self._acked_packets = 0
        self._inflight_bytes = 0
        self._window_bytes = network.effective_window_bytes()
        self._next_pace_time = start_time
        self._pace_event = None
        self._done = False
        self._started = False
        #: the pending RTO timer, and when it is really due: progress
        #: moves only the deadline, the timer re-arms when it fires early
        self._rto_event = None
        self._rto_deadline = 0.0

    # ------------------------------------------------------------------
    @property
    def completed(self) -> bool:
        return self._done

    def start(self) -> None:
        """Register with the host and begin sending at ``start_time``."""
        if self._started:
            return
        self._started = True
        self.host.register_sender(self)
        self.network.register_flow(self)
        delay = max(0.0, self.stats.start_time - self.network.sim.now)
        self.network.sim.schedule(delay, self._begin)

    def _begin(self) -> None:
        self.dcqcn.start()
        self._arm_rto()
        self._try_send()

    # ------------------------------------------------------------------
    # loss recovery (go-back-N on timeout, as RoCE NICs do)
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        rto = self.network.config.rto_ns
        if rto is None or self._done:
            return
        sim = self.network.sim
        self._rto_deadline = sim.now + rto
        if self._rto_event is None:
            self._rto_event = sim.schedule(rto, self._on_rto)

    def _on_rto(self) -> None:
        self._rto_event = None
        if self._done:
            return
        sim = self.network.sim
        if sim.now < self._rto_deadline:
            # progress since this timer was set: wait for the deadline
            self._rto_event = sim.schedule_at(self._rto_deadline,
                                              self._on_rto)
            return
        if self._acked_packets < self._next_seq:
            # unacked tail presumed lost (e.g. TTL death in a loop):
            # rewind to the last cumulative ACK and resend
            self.stats.retransmissions += \
                self._next_seq - self._acked_packets
            self._next_seq = self._acked_packets
            self._inflight_bytes = 0
            self._next_pace_time = sim.now
        self._arm_rto()
        self._try_send()

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def _try_send(self) -> None:
        last = self.num_packets - 1
        if self._next_seq > last:
            return  # all packets queued; completion comes with the last ACK
        sim = self.network.sim
        now = sim.now
        while self._next_seq <= last:
            payload = self._last_payload if self._next_seq == last \
                else MTU_PAYLOAD_BYTES
            if self._inflight_bytes + payload > self._window_bytes:
                return  # window-limited; resumed by the next ACK
            if now < self._next_pace_time:
                pace = self._pace_event
                if pace is None or pace.cancelled:
                    self._pace_event = sim.schedule(
                        max(0.0, self._next_pace_time - now),
                        self._pace_fire)
                return
            if not self.port.data_queue_has_room(payload + HEADER_BYTES):
                return  # NIC queue full; resumed by host on_space
            packet = make_data_packet(self.key, self._next_seq, payload, now)
            if packet.seq == 0:
                # receivers learn the message size from the first packet
                # (in-order acceptance means later packets never need it)
                packet.payload["msg_bytes"] = self.size_bytes
            if self.stats.first_send_time is None:
                self.stats.first_send_time = now
            self._next_seq += 1
            self._inflight_bytes += payload
            self.stats.packets_sent += 1
            # inlined serialization_delay(), identical operation order
            self._next_pace_time = now + (
                packet.size * 8.0 / self.dcqcn.rc * SEC)
            self.port.enqueue(packet)

    def _pace_fire(self) -> None:
        self._pace_event = None
        self._try_send()

    def kick(self) -> None:
        """Host signal: NIC queue space freed — try to send again."""
        if not self._done and self._started:
            self._try_send()

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def on_ack(self, ack_seq: int, data_send_time: float) -> None:
        """Cumulative ACK for packets up to and including ``ack_seq``."""
        now = self.network.sim.now
        rtt = now - data_send_time
        self.stats.rtt_samples += 1
        if rtt > self.stats.max_rtt_ns:
            self.stats.max_rtt_ns = rtt
        for observer in self.rtt_observers:
            observer(self, rtt, ack_seq, now)
        progressed = False
        last = self.num_packets - 1
        while self._acked_packets <= ack_seq:
            seq = self._acked_packets
            payload = self._last_payload if seq == last \
                else MTU_PAYLOAD_BYTES
            self._inflight_bytes = max(0, self._inflight_bytes - payload)
            self.stats.bytes_acked += payload
            self.stats.packets_acked += 1
            self._acked_packets += 1
            progressed = True
        if progressed:
            self._arm_rto()
        if self._acked_packets >= self.num_packets and not self._done:
            self._complete()
            return
        self._try_send()

    def on_cnp(self) -> None:
        self.stats.cnps_received += 1
        self.dcqcn.on_cnp()

    def _complete(self) -> None:
        self._done = True
        self.stats.complete_time = self.network.sim.now
        if self.network.sim.sanitizer is not None:
            self.network.sim.sanitizer.check_flow_conservation(self)
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None
        self.dcqcn.stop()
        self.host.unregister_sender(self)
        if self.on_sender_complete is not None:
            self.on_sender_complete(self)


class FlowReceiver:
    """Receiver side: reassembly progress, ACK and CNP generation."""

    __slots__ = ("network", "host", "key", "expected_bytes",
                 "received_bytes", "highest_seq",
                 "_last_cnp_time", "on_receive_complete", "_done",
                 "ack_every", "first_arrival_time", "complete_time",
                 "_rev_key")

    def __init__(self, network: "Network", host: "HostNode", key: FlowKey,
                 expected_bytes: Optional[Bytes] = None,
                 on_receive_complete: Optional[Callable] = None) -> None:
        self.network = network
        self.host = host
        self.key = key
        self._rev_key = key.reversed()  # per-ACK alloc hoisted here
        self.expected_bytes = expected_bytes
        self.received_bytes = 0
        self.highest_seq = -1
        self._last_cnp_time = -1e18
        self.on_receive_complete = on_receive_complete
        self._done = False
        self.ack_every = network.config.ack_every
        self.first_arrival_time: Optional[float] = None
        self.complete_time: Optional[float] = None

    @property
    def completed(self) -> bool:
        return self._done

    def on_data(self, packet: Packet) -> None:
        """Strictly in-order acceptance, as RoCE NICs implement it:
        duplicates are re-ACKed, out-of-order arrivals (a gap means an
        upstream drop, e.g. TTL death in a loop) are discarded and the
        sender recovers via go-back-N on its RTO."""
        now = self.network.sim.now
        if self.first_arrival_time is None:
            self.first_arrival_time = now
        if self.expected_bytes is None:
            self.expected_bytes = packet.payload.get("msg_bytes")
        if packet.ecn_marked:
            self._maybe_send_cnp(now)
        if packet.seq != self.highest_seq + 1:
            if self.highest_seq >= 0:
                # dup or gap: re-assert the cumulative ACK point
                self._send_ack(self.highest_seq, packet.create_time, now)
            return
        payload_bytes = packet.size - 66
        self.received_bytes += payload_bytes
        self.highest_seq = packet.seq
        if self.network.sim.sanitizer is not None:
            self.network.sim.sanitizer.check_receiver_progress(self)
        is_last = (self.expected_bytes is not None
                   and self.received_bytes >= self.expected_bytes)
        if packet.seq % self.ack_every == self.ack_every - 1 or is_last:
            self._send_ack(packet.seq, packet.create_time, now)
        if is_last and not self._done:
            self._done = True
            self.complete_time = now
            if self.on_receive_complete is not None:
                self.on_receive_complete(self)

    def _send_ack(self, ack_seq: int, data_send_time: float,
                  now: float) -> None:
        ack = make_control_packet(
            KIND_ACK, self._rev_key, self.key.dst, self.key.src, now)
        ack.ack_seq = ack_seq
        ack.data_send_time = data_send_time
        ack.orig_flow = self.key
        self.host.send_packet(ack)

    def _maybe_send_cnp(self, now: float) -> None:
        if now - self._last_cnp_time < CNP_INTERVAL_NS:
            return
        self._last_cnp_time = now
        cnp = make_control_packet(
            PacketKind.CNP, self._rev_key, self.key.dst, self.key.src, now)
        cnp.orig_flow = self.key
        self.host.send_packet(cnp)
