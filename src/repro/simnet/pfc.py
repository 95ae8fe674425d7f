"""PFC (Priority Flow Control, IEEE 802.1Qbb) bookkeeping and fault
injection.

The data-plane mechanics (when to send PAUSE/RESUME, what a paused port
does) live in :mod:`repro.simnet.switch` and :mod:`repro.simnet.port`;
this module holds the shared record types plus the PFC *storm injector*,
which emulates the hardware bug described in §II-B: a port that injects
PAUSE frames continuously regardless of actual buffer occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.core.units import Nanoseconds
from repro.simnet.units import us

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.network import Network

#: Pause duration one PAUSE frame imposes (roughly 65535 quanta of
#: 512 bit-times at 100 Gbps ≈ 335 us; we round to a readable value).
PAUSE_QUANTA_NS = us(300)


class PortRef(NamedTuple):
    """A physical port: (node id, local port index).

    A tuple so that every ``(port, f_i, f_j)`` / ``(flow, port)`` key of
    the provenance graphs hashes and compares in C; serialisers encode
    it explicitly (``traces.serialize.encode_port_ref``) — JSON would
    otherwise write it as a bare list.
    """

    node: str
    port: int

    def __str__(self) -> str:
        return f"{self.node}.p{self.port}"


@dataclass
class PauseEvent:
    """One PAUSE frame observed on the wire.

    ``sender`` is the port that emitted the frame (the congested or buggy
    downstream device); ``victim`` is the upstream egress port that halts.
    ``genuine`` is False for injected (storm) frames — telemetry exposes
    the *sender-side* justification (ingress buffer occupancy at send
    time), which is what lets the diagnosis distinguish a storm from real
    backpressure.
    """

    time: Nanoseconds
    sender: PortRef
    victim: PortRef
    buffer_bytes_at_send: int
    genuine: bool = True


@dataclass
class ResumeEvent:
    """One RESUME frame observed on the wire."""

    time: Nanoseconds
    sender: PortRef
    victim: PortRef


@dataclass
class PauseLog:
    """Per-switch log of PFC activity, consumed by telemetry reports."""

    sent: list[PauseEvent] = field(default_factory=list)
    received: list[PauseEvent] = field(default_factory=list)
    resumes_sent: list[ResumeEvent] = field(default_factory=list)
    resumes_received: list[ResumeEvent] = field(default_factory=list)

    def pauses_received_since(self, port: int, since: float) -> list[PauseEvent]:
        return [e for e in self.received
                if e.victim.port == port and e.time >= since]


class PfcStormInjector:
    """Continuously injects PAUSE frames from a switch port (§II-B).

    ``switch_id``/``port`` identify the faulty port; frames are sent to
    whatever device sits upstream of that port.  Frames repeat every
    ``refresh_ns`` (default: half the pause quanta, so the victim never
    unpauses) between ``start_ns`` and ``start_ns + duration_ns``.
    """

    def __init__(self, network: "Network", switch_id: str, port: int,
                 start_ns: Nanoseconds, duration_ns: Nanoseconds,
                 refresh_ns: Optional[Nanoseconds] = None) -> None:
        self.network = network
        self.switch_id = switch_id
        self.port = port
        self.start_ns = start_ns
        self.end_ns = start_ns + duration_ns
        self.refresh_ns = refresh_ns if refresh_ns is not None \
            else PAUSE_QUANTA_NS / 2
        self.frames_sent = 0
        self._armed = False

    @property
    def source_ref(self) -> PortRef:
        """The buggy port — the ground-truth root cause for scoring."""
        return PortRef(self.switch_id, self.port)

    def arm(self) -> None:
        """Schedule the storm.  Idempotent."""
        if self._armed:
            return
        self._armed = True
        self.network.sim.schedule_at(self.start_ns, self._inject)

    def _inject(self) -> None:
        if self.network.sim.now >= self.end_ns:
            return
        switch = self.network.switches[self.switch_id]
        switch.inject_pause(self.port)
        self.frames_sent += 1
        self.network.sim.schedule(self.refresh_ns, self._inject)
