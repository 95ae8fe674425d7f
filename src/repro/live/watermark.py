"""Completion-time watermarking for out-of-order telemetry.

The analyzer wants events in completion-time order (§III-D1), but a
real monitoring stream interleaves hosts and switches whose clocks and
delivery paths skew.  :class:`WatermarkBuffer` is the standard fix: it
buffers events in an event-time heap and only *releases* those whose
time is at or below the watermark

    ``watermark = max(event time seen) - lateness_bound``,

so any event arriving up to ``lateness_bound`` nanoseconds out of order
is still emitted in sorted position.  Events that arrive *behind* the
already-advanced watermark are late beyond the bound; they are
discarded and counted (``late_discarded``) rather than silently folded
in at the wrong position.  ``flush()`` releases everything still
buffered (end of stream).
"""

from __future__ import annotations

import heapq
from typing import Iterator

from repro.core.units import Nanoseconds
from repro.live.bus import TelemetryEvent


class WatermarkBuffer:
    """Reorder buffer bounded by event-time lateness, not by count.

    ``lateness_bound_ns <= 0`` degenerates to pass-through in arrival
    order (watermark == max time seen, nothing buffered for long).
    """

    def __init__(self, lateness_bound_ns: Nanoseconds = 0.0) -> None:
        self.lateness_bound_ns = max(0.0, lateness_bound_ns)
        self._heap: list[tuple[float, int, TelemetryEvent]] = []
        self._max_time_seen = float("-inf")
        self._released_through = float("-inf")
        self.late_discarded = 0
        self.observed = 0

    # ------------------------------------------------------------------
    @property
    def watermark(self) -> float:
        """No event at or before this time is still expected."""
        if self._max_time_seen == float("-inf"):
            return float("-inf")
        return self._max_time_seen - self.lateness_bound_ns

    @property
    def buffered(self) -> int:
        return len(self._heap)

    # ------------------------------------------------------------------
    def observe(self, event: TelemetryEvent
                ) -> Iterator[TelemetryEvent]:
        """Accept one event; yield every event the advanced watermark
        now releases, in event-time order.

        A late event (older than what has already been released) is
        discarded and counted — emitting it would reorder the output.
        """
        self.observed += 1
        if event.time < self._released_through:
            self.late_discarded += 1
            return
        self._max_time_seen = max(self._max_time_seen, event.time)
        heapq.heappush(self._heap, (event.time, event.seq, event))
        yield from self._release(self.watermark)

    def _release(self, through: float) -> Iterator[TelemetryEvent]:
        while self._heap and self._heap[0][0] <= through:
            time, _, event = heapq.heappop(self._heap)
            self._released_through = max(self._released_through, time)
            yield event

    def flush(self) -> Iterator[TelemetryEvent]:
        """Release everything buffered (stream end / forced snapshot)."""
        yield from self._release(float("inf"))
