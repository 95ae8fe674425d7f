"""Packet and flow-identifier types shared across the simulator.

A :class:`FlowKey` is the classic 5-tuple.  Hosts are addressed by their
topology node id; "ports" in the 5-tuple sense are transport ports (queue
pair numbers in RDMA terms), distinct from the physical switch ports
modelled in :mod:`repro.simnet.switch`.

Packets are the highest-volume allocation in the simulator, so
:class:`Packet` is a ``__slots__`` class (not a dataclass) with a lazy
``payload``: the dict only materialises when first touched, which most
data packets never do; per-hop and per-ACK state rides in slots.
:func:`intern_flow_key` deduplicates equal
5-tuples so flow-keyed dict lookups hit the identity fast path.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional
from repro.core.units import Bytes, Nanoseconds


class Priority(enum.IntEnum):
    """Traffic classes.  Lower value = served first.

    CONTROL carries ACK/CNP/PFC/notification/polling traffic; it bypasses
    data queues and is never paused by PFC (as in real RoCE deployments,
    where control traffic rides a separate, unpaused class).
    DATA is the lossless class subject to PFC.
    """

    CONTROL = 0
    DATA = 1


class PacketKind(enum.Enum):
    """What a packet is, which determines how nodes treat it."""

    DATA = "data"
    ACK = "ack"
    CNP = "cnp"          # DCQCN congestion notification packet
    PAUSE = "pause"      # PFC pause frame (link-local)
    RESUME = "resume"    # PFC resume frame (link-local)
    POLL = "poll"        # telemetry polling query (Vedrfolnir/Hawkeye)
    NOTIFY = "notify"    # detection-opportunity notification (Fig. 6)
    REPORT = "report"    # switch telemetry report to the analyzer


#: The members the per-hop path tests, as module globals: on CPython
#: <= 3.11 ``Priority.DATA`` is a metaclass lookup (~10x a global load),
#: and every packet-hop makes two to four of them.
PRIO_CONTROL, PRIO_DATA = Priority.CONTROL, Priority.DATA
KIND_DATA, KIND_ACK, KIND_POLL = \
    PacketKind.DATA, PacketKind.ACK, PacketKind.POLL


class FlowKey(NamedTuple):
    """RoCEv2 5-tuple identifying a flow."""

    src: str
    dst: str
    src_port: int
    dst_port: int
    protocol: str = "UDP"

    def reversed(self) -> "FlowKey":
        """The key of reverse-direction traffic (ACKs, CNPs)."""
        return FlowKey(self.dst, self.src, self.dst_port, self.src_port,
                       self.protocol)

    def short(self) -> str:
        """Compact human-readable form used in diagnostics."""
        return f"{self.src}:{self.src_port}->{self.dst}:{self.dst_port}"


#: intern table mapping each distinct 5-tuple to its canonical instance
_FLOW_KEYS: dict[FlowKey, FlowKey] = {}


def intern_flow_key(key: FlowKey) -> FlowKey:
    """Return the canonical instance equal to ``key``.

    Interning makes repeated dict operations on flow keys cheaper (the
    ``is``-shortcut in dict lookup short-circuits tuple comparison) and
    collapses the per-hop pseudo-flow allocations for control traffic.
    The table grows with the number of *distinct* flows, which is small
    and bounded per scenario.
    """
    canonical = _FLOW_KEYS.get(key)
    if canonical is None:
        canonical = _FLOW_KEYS.setdefault(key, key)
    return canonical


#: Fixed header overhead applied to every packet (Ethernet+IP+UDP+BTH).
HEADER_BYTES = 66

#: Largest DATA payload one packet carries.
MTU_PAYLOAD_BYTES = 4096

#: Size of small control packets (ACK/CNP/PFC/poll/notify) on the wire.
CONTROL_PACKET_BYTES = 64


class Packet:
    """A simulated packet.

    ``size`` is the on-wire size in bytes including headers.  ``payload``
    carries kind-specific metadata (e.g. polling scope, notification
    budget) and never affects the wire size accounting beyond ``size``.
    ``payload`` allocates lazily on first access.

    ``ingress`` is the port a DATA packet entered its current switch
    on (PFC accounting at departure).  ACKs carry ``ack_seq``,
    ``data_send_time`` and ``orig_flow``, CNPs ``orig_flow``; no other
    kind sets them.
    """

    __slots__ = ("kind", "flow", "src", "dst", "size", "priority", "seq",
                 "ecn_capable", "ecn_marked", "ttl", "create_time",
                 "ingress", "ack_seq", "data_send_time", "orig_flow",
                 "_payload")

    def __init__(self, kind: PacketKind, flow: Optional[FlowKey],
                 src: str, dst: str, size: int,
                 priority: Priority = Priority.DATA, seq: int = 0,
                 ecn_capable: bool = True, ecn_marked: bool = False,
                 ttl: int = 64, create_time: float = 0.0,
                 payload: Optional[dict] = None) -> None:
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        self.kind = kind
        self.flow = flow
        self.src = src
        self.dst = dst
        self.size = size
        self.priority = priority
        self.seq = seq
        self.ecn_capable = ecn_capable
        self.ecn_marked = ecn_marked
        self.ttl = ttl
        self.create_time = create_time
        self.ingress: Optional[int] = None
        self._payload = payload

    @property
    def payload(self) -> dict:
        """Kind-specific metadata dict (created on first access)."""
        payload = self._payload
        if payload is None:
            payload = self._payload = {}
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fk = self.flow.short() if self.flow else "-"
        return (f"Packet({self.kind.value}, {fk}, seq={self.seq}, "
                f"size={self.size}, prio={self.priority.name})")


def make_data_packet(flow: FlowKey, seq: int, payload_bytes: Bytes,
                     now: Nanoseconds) -> Packet:
    """Build a DATA packet of ``payload_bytes`` plus header overhead."""
    return Packet(
        kind=KIND_DATA,
        flow=flow,
        src=flow.src,
        dst=flow.dst,
        size=payload_bytes + HEADER_BYTES,
        priority=PRIO_DATA,
        seq=seq,
        create_time=now,
    )


def make_control_packet(kind: PacketKind, flow: Optional[FlowKey], src: str,
                        dst: str, now: Nanoseconds, payload: Optional[dict] = None
                        ) -> Packet:
    """Build a small control-class packet (ACK, CNP, POLL, NOTIFY...)."""
    return Packet(
        kind=kind,
        flow=flow,
        src=src,
        dst=dst,
        size=CONTROL_PACKET_BYTES,
        priority=PRIO_CONTROL,
        create_time=now,
        payload=payload,
        ecn_capable=False,
    )
