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
from typing import Iterator
from repro.core.units import Nanoseconds


@dataclass(frozen=True)
class TelemetryEvent:
    """One unit of monitoring data on the bus.

    ``kind`` is ``step_record`` or ``switch_report``; ``time`` is the
    event's *event time* in simulation nanoseconds (a step record's
    completion time, a switch report's emission time) — the quantity
    the watermark advances on.  ``seq`` breaks ties deterministically.
    """

    kind: str
    time: Nanoseconds
    payload: object
    seq: int = 0


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
        self._queue.append(event)
        stats = self.stats
        stats.published += 1
        stats.high_watermark = max(stats.high_watermark,
                                   len(self._queue))

    def drain(self, limit: int = 0) -> Iterator[TelemetryEvent]:
        """Yield up to ``limit`` queued events (all of them if 0)."""
        taken = 0
        while self._queue and (limit <= 0 or taken < limit):
            taken += 1
            self.stats.consumed += 1
            yield self._queue.popleft()
