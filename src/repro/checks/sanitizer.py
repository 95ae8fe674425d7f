"""Runtime simulation sanitizer (``Simulator(sanitize=True)``).

The static pass in :mod:`repro.checks.lint` catches bug classes that are
visible in source; this module catches the ones that only exist at run
time.  When sanitizing is enabled the engine and the data-plane
components consult a per-simulator :class:`SimSanitizer` and verify, per
event:

* **monotonic clock** — no event executes at a time earlier than the
  clock, and no callback mutates ``Simulator.now``;
* **non-negative occupancy** — egress queue byte counters and switch
  ingress PFC accounting never go below zero;
* **byte conservation** — a flow completes with exactly ``size_bytes``
  acknowledged, and a receiver never accepts more bytes than the message
  carries;
* **PFC pairing** — a RESUME frame is only delivered to a port that has
  an outstanding PAUSE from the data plane.

Violations raise :class:`InvariantViolation` immediately, carrying the
violation kind, the simulation time, a structured context dict and the
trace of the most recently executed events — enough to triage a
divergence without re-running the simulation under a debugger.

The sanitizer is off by default: the hot path pays one ``is None``
branch per hook.  Enable it per simulator (``Simulator(sanitize=True)``,
``Network(..., sanitize=True)``) or globally via ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.engine import Simulator
    from repro.simnet.flow import FlowReceiver, RdmaFlow

#: how many executed events the sanitizer retains for violation reports
EVENT_TRACE_DEPTH = 16


@dataclass(frozen=True)
class TracedEvent:
    """One executed event retained in the sanitizer's ring buffer."""

    time: float
    seq: int
    callback: str

    def __str__(self) -> str:
        return f"t={self.time:.1f}ns seq={self.seq} {self.callback}"


class InvariantViolation(ValueError):
    """A simulation invariant was violated.

    Subclasses :class:`ValueError` so callers that already guard
    engine-level scheduling errors (``except ValueError``) keep working
    when the sanitizer is enabled.

    Attributes:
        kind: machine-readable violation class (``"clock_regression"``,
            ``"clock_mutated"``, ``"negative_occupancy"``,
            ``"byte_conservation"``, ``"unpaired_resume"``,
            ``"schedule_in_past"``, ``"schedule_nan"``).
        time: simulation time (ns) when the violation was detected.
        context: structured key/value details about the offending state.
        event_trace: the most recently executed events, oldest first.
    """

    def __init__(self, kind: str, message: str, *, time: float,
                 context: Optional[dict] = None,
                 event_trace: tuple = ()) -> None:
        self.kind = kind
        self.time = time
        self.context = dict(context or {})
        self.event_trace = tuple(event_trace)
        super().__init__(self._render(message))

    def _render(self, message: str) -> str:
        lines = [f"[{self.kind}] t={self.time:.1f}ns: {message}"]
        for key in sorted(self.context):
            lines.append(f"  {key} = {self.context[key]!r}")
        if self.event_trace:
            lines.append("  recent events (oldest first):")
            lines.extend(f"    {entry}" for entry in self.event_trace)
        return "\n".join(lines)


def _callback_label(callback: Any) -> str:
    """Human-readable name of an event callback, with its owner."""
    name = getattr(callback, "__qualname__", None) \
        or type(callback).__name__
    owner = getattr(callback, "__self__", None)
    for attr in ("node_id", "key"):
        ident = getattr(owner, attr, None)
        if ident is not None:
            return f"{name}[{ident}]"
    return name


class SimSanitizer:
    """Per-simulator invariant checker.

    Instantiated by :class:`~repro.simnet.engine.Simulator` when
    sanitizing is requested; components reach it via ``sim.sanitizer``
    (``None`` when off) and call the ``check_*``/``on_*`` hooks below.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: raw (time, seq, callback) of the last executed events; labels
        #: are rendered when a violation asks, not once per event
        self._trace: deque[tuple] = deque(maxlen=EVENT_TRACE_DEPTH)
        #: (victim node, victim port) -> pauses delivered minus resumes
        self._outstanding_pauses: dict[tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    # violation plumbing
    # ------------------------------------------------------------------
    def event_trace(self) -> tuple:
        """The retained execution trace, oldest event first."""
        return tuple(TracedEvent(time, seq, _callback_label(callback))
                     for time, seq, callback in self._trace)

    def violation(self, kind: str, message: str, **context: Any) -> None:
        """Raise a structured :class:`InvariantViolation`."""
        raise InvariantViolation(
            kind, message, time=self.sim.now, context=context,
            event_trace=self.event_trace())

    # ------------------------------------------------------------------
    # engine hooks (called from Simulator.run)
    # ------------------------------------------------------------------
    def before_event(self, time: float, seq: int, callback: Any) -> None:
        """Monotonicity check + trace append, before the clock advances."""
        if time < self.sim.now:
            self.violation(
                "clock_regression",
                "event scheduled before the current clock reached the "
                "head of the heap",
                event_time=time, clock=self.sim.now,
                callback=_callback_label(callback))
        self._trace.append((time, seq, callback))

    def after_event(self, time: float, seq: int, callback: Any) -> None:
        """Detect callbacks that mutate ``Simulator.now``."""
        if self.sim.now != time:  # repro: noqa RPR003 - exact by design
            self.violation(
                "clock_mutated",
                "callback mutated Simulator.now (callbacks must only "
                "schedule, never move the clock)",
                expected=time, found=self.sim.now, seq=seq,
                callback=_callback_label(callback))

    # ------------------------------------------------------------------
    # data-plane hooks
    # ------------------------------------------------------------------
    def check_occupancy(self, node_id: str, port_id: int, what: str,
                        value: float) -> None:
        """Byte counters (queues, PFC ingress accounting) must be >= 0."""
        if value < 0:
            self.violation(
                "negative_occupancy",
                f"{what} on {node_id}.p{port_id} went negative",
                node=node_id, port=port_id, what=what, value=value)

    def on_pause_delivered(self, victim_node: str, port_id: int) -> None:
        key = (victim_node, port_id)
        self._outstanding_pauses[key] = \
            self._outstanding_pauses.get(key, 0) + 1

    def on_resume_delivered(self, victim_node: str, port_id: int) -> None:
        key = (victim_node, port_id)
        outstanding = self._outstanding_pauses.get(key, 0)
        if outstanding <= 0:
            self.violation(
                "unpaired_resume",
                f"RESUME delivered to {victim_node}.p{port_id} with no "
                f"outstanding PAUSE",
                node=victim_node, port=port_id)
        self._outstanding_pauses[key] = outstanding - 1

    # ------------------------------------------------------------------
    # byte conservation
    # ------------------------------------------------------------------
    def check_flow_conservation(self, flow: "RdmaFlow") -> None:
        """At sender completion every payload byte must be acknowledged
        exactly once."""
        stats = flow.stats
        if stats.bytes_acked != flow.size_bytes:
            self.violation(
                "byte_conservation",
                f"flow {flow.key.short()} completed with "
                f"{stats.bytes_acked} bytes acked, expected "
                f"{flow.size_bytes}",
                flow=flow.key.short(), bytes_acked=stats.bytes_acked,
                size_bytes=flow.size_bytes)
        if stats.packets_acked != flow.num_packets:
            self.violation(
                "byte_conservation",
                f"flow {flow.key.short()} completed with "
                f"{stats.packets_acked} packets acked, expected "
                f"{flow.num_packets}",
                flow=flow.key.short(), packets_acked=stats.packets_acked,
                num_packets=flow.num_packets)

    def check_receiver_progress(self, receiver: "FlowReceiver") -> None:
        """A receiver must never accept more bytes than the message."""
        expected = receiver.expected_bytes
        if expected is not None and receiver.received_bytes > expected:
            self.violation(
                "byte_conservation",
                f"receiver for {receiver.key.short()} accepted "
                f"{receiver.received_bytes} bytes, message carries "
                f"{expected}",
                flow=receiver.key.short(),
                received_bytes=receiver.received_bytes,
                expected_bytes=expected)
