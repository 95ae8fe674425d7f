"""Bounded in-process event bus with explicit backpressure.

The live pipeline's ingestion boundary: producers (a trace replayer, a
network report sink) publish :class:`TelemetryEvent`\\ s, the pipeline
drains them.  The queue is bounded; what happens when a producer
outruns the consumer is an explicit, counted policy decision:

* ``block`` — exert backpressure: the bus synchronously invokes the
  registered drain hook (the consumer runs inline, which is what
  "the producer blocks" means in a single-threaded service) and, if
  the hook cannot make room, raises :class:`BusOverflow`;
* ``drop-oldest`` — evict the oldest queued event to admit the new one
  (bounded staleness, favors fresh telemetry);
* ``drop-newest`` — reject the incoming event (favors already-queued
  work, the classic load-shedding policy).

Every drop and every backpressure stall is counted — a lossy bus that
cannot say how lossy it was is a diagnosis bug factory.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Optional
from repro.core.units import Nanoseconds


class BusPolicy(enum.Enum):
    """What :meth:`EventBus.publish` does when the queue is full."""

    BLOCK = "block"
    DROP_OLDEST = "drop-oldest"
    DROP_NEWEST = "drop-newest"


class BusOverflow(RuntimeError):
    """Raised under the ``block`` policy when backpressure cannot free
    space (no drain hook, or the hook consumed nothing)."""


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
    dropped_oldest: int = 0
    dropped_newest: int = 0
    backpressure_stalls: int = 0
    high_watermark: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_oldest + self.dropped_newest


class EventBus:
    """A bounded FIFO of :class:`TelemetryEvent` with drop accounting.

    ``drain_hook`` (set by the pipeline) is called under the ``block``
    policy when the queue is full; it should consume at least one
    event.  ``capacity <= 0`` means unbounded.
    """

    def __init__(self, capacity: int = 4096,
                 policy: BusPolicy = BusPolicy.BLOCK,
                 drain_hook: Optional[Callable[[], None]] = None) -> None:
        if isinstance(policy, str):
            policy = BusPolicy(policy)
        self.capacity = capacity
        self.policy = policy
        self.drain_hook = drain_hook
        self._queue: deque[TelemetryEvent] = deque()
        self.stats = BusStats()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        return self.capacity > 0 and len(self._queue) >= self.capacity

    def publish(self, event: TelemetryEvent) -> bool:
        """Enqueue one event.  Returns True if the event was admitted."""
        stats = self.stats
        if self.full:
            if self.policy is BusPolicy.BLOCK:
                stats.backpressure_stalls += 1
                if self.drain_hook is not None:
                    self.drain_hook()
                if self.full:
                    raise BusOverflow(
                        f"bus full ({self.capacity} events) and "
                        f"backpressure freed no space")
            elif self.policy is BusPolicy.DROP_OLDEST:
                self._queue.popleft()
                stats.dropped_oldest += 1
            else:  # DROP_NEWEST
                stats.dropped_newest += 1
                return False
        self._queue.append(event)
        stats.published += 1
        stats.high_watermark = max(stats.high_watermark,
                                   len(self._queue))
        return True

    # ------------------------------------------------------------------
    def peek(self) -> Optional[TelemetryEvent]:
        """The oldest queued event, left on the queue; None when empty."""
        return self._queue[0] if self._queue else None

    def take(self) -> Optional[TelemetryEvent]:
        """Dequeue the oldest event, or None when empty."""
        if not self._queue:
            return None
        self.stats.consumed += 1
        return self._queue.popleft()

    def drain(self, limit: int = 0) -> Iterator[TelemetryEvent]:
        """Yield up to ``limit`` queued events (all of them if 0)."""
        taken = 0
        while self._queue and (limit <= 0 or taken < limit):
            taken += 1
            self.stats.consumed += 1
            yield self._queue.popleft()
