"""Host (end-node) data plane: NIC port, flow endpoints, control hooks.

Hosts own the sender transports (:class:`~repro.simnet.flow.RdmaFlow`)
and receiver states.  They also expose hook lists that the Vedrfolnir /
Hawkeye host agents attach to: ``notify_handlers`` for detection
notification packets, ``data_arrival_handlers`` for monitors that need
per-arrival visibility.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.units import Bytes
from repro.simnet.flow import FlowReceiver, RdmaFlow
from repro.simnet.node import Node
from repro.simnet.packet import (
    KIND_ACK,
    KIND_DATA,
    FlowKey,
    Packet,
    PacketKind,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.network import Network


class HostNode(Node):
    """A server with one NIC port."""

    def __init__(self, network: "Network", node_id: str) -> None:
        super().__init__(network, node_id)
        #: currently-sending flows (kicked when NIC queue space frees)
        self.active_senders: dict[FlowKey, RdmaFlow] = {}
        #: every sender ever registered (late ACKs must still resolve)
        self.all_senders: dict[FlowKey, RdmaFlow] = {}
        self.receivers: dict[FlowKey, FlowReceiver] = {}
        self.notify_handlers: list[Callable[[Packet], None]] = []
        self.poll_handlers: list[Callable[[Packet], None]] = []

    # ------------------------------------------------------------------
    # flow registration
    # ------------------------------------------------------------------
    def register_sender(self, flow: RdmaFlow) -> None:
        self.active_senders[flow.key] = flow
        self.all_senders[flow.key] = flow

    def unregister_sender(self, flow: RdmaFlow) -> None:
        self.active_senders.pop(flow.key, None)

    def register_receiver(self, receiver: FlowReceiver) -> None:
        self.receivers[receiver.key] = receiver

    def expect_flow(self, key: FlowKey, expected_bytes: Optional[Bytes] = None,
                    on_receive_complete: Optional[Callable] = None
                    ) -> FlowReceiver:
        """Pre-register a receiver (collective runtime does this so the
        completion callback is wired before the first packet lands)."""
        receiver = FlowReceiver(self.network, self, key, expected_bytes,
                                on_receive_complete)
        self.register_receiver(receiver)
        return receiver

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def send_packet(self, packet: Packet) -> None:
        self.ports[0].enqueue(packet)

    def on_port_space(self, port) -> None:
        """NIC dequeued a packet: give blocked senders another chance."""
        senders = self.active_senders
        if not senders:
            return
        if len(senders) == 1:
            # fast path: skip the defensive copy (kick() may unregister
            # the flow, but we have already fetched it)
            next(iter(senders.values())).kick()
            return
        for flow in list(senders.values()):
            flow.kick()

    def receive(self, packet: Packet, ingress_port: int) -> None:
        kind = packet.kind
        if kind is KIND_DATA:
            receiver = self.receivers.get(packet.flow)
            if receiver is None:
                receiver = FlowReceiver(self.network, self, packet.flow)
                self.register_receiver(receiver)
            receiver.on_data(packet)
        elif kind is KIND_ACK:
            sender = self.all_senders.get(packet.orig_flow)
            if sender is not None:
                sender.on_ack(packet.ack_seq, packet.data_send_time)
        elif kind is PacketKind.CNP:
            self._on_cnp(packet)
        elif kind is PacketKind.NOTIFY:
            for handler in self.notify_handlers:
                handler(packet)
        elif kind is PacketKind.POLL:
            for handler in self.poll_handlers:
                handler(packet)
        # REPORT packets never terminate at hosts; ignore anything else

    def _on_cnp(self, packet: Packet) -> None:
        sender = self.all_senders.get(packet.orig_flow)
        if sender is not None and not sender.completed:
            sender.on_cnp()
