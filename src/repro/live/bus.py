"""The in-process event bus: a FIFO holding at most one pump batch.

The live pipeline's ingestion boundary: producers (a trace replayer, a
network report sink) publish :class:`TelemetryEvent`\\ s, the pipeline
drains them.  The bus has no bound of its own and no overflow policy:
:meth:`repro.live.pipeline.LivePipeline.publish` pumps a batch off it
as soon as one is queued, so it never holds more than
``repro.live.pipeline.PUMP_BATCH`` events and no producer can outrun it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional
from repro.core.units import Nanoseconds


@dataclass(slots=True)
class TelemetryEvent:
    """One unit of monitoring data on the bus.

    ``kind`` is ``step_record`` or ``switch_report``; ``time`` is the
    event's *event time* in simulation nanoseconds (a step record's
    completion time, a switch report's emission time) — the quantity
    the watermark advances on.  ``seq`` breaks ties deterministically.
    ``arrival`` is the wall-clock time the event reached the bus, which
    the snapshot that includes it measures its latency from (None: not
    measured).
    """

    kind: str
    time: Nanoseconds
    payload: object
    seq: int = 0
    arrival: Optional[float] = None


@dataclass
class BusStats:
    """Mutable counter block, exposed on the bus and in metrics."""

    published: int = 0
    consumed: int = 0
    high_watermark: int = 0


class EventBus:
    """A FIFO of :class:`TelemetryEvent` with depth accounting."""

    def __init__(self) -> None:
        self._queue: deque[TelemetryEvent] = deque()
        self.stats = BusStats()

    def __len__(self) -> int:
        return len(self._queue)

    def publish(self, event: TelemetryEvent) -> None:
        """Enqueue one event."""
        queue = self._queue
        queue.append(event)
        stats = self.stats
        stats.published += 1
        if len(queue) > stats.high_watermark:
            stats.high_watermark = len(queue)

    def drain(self, limit: int = 0) -> list[TelemetryEvent]:
        """Take up to ``limit`` queued events (all of them if 0), oldest
        first; they count as consumed once taken."""
        queue = self._queue
        if limit <= 0 or limit >= len(queue):
            taken = list(queue)
            queue.clear()
        else:
            taken = [queue.popleft() for _ in range(limit)]
        self.stats.consumed += len(taken)
        return taken

    def requeue(self, events: list[TelemetryEvent]) -> None:
        """Put events :meth:`drain` took back at the front, in order;
        they no longer count as consumed."""
        self._queue.extendleft(reversed(events))
        self.stats.consumed -= len(events)
