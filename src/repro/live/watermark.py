"""Completion-time watermarking for out-of-order telemetry.

The analyzer wants events in completion-time order (§III-D1), but a
real monitoring stream interleaves hosts and switches whose clocks and
delivery paths skew.  The watermark is the latest event time admitted
so far: an event behind it arrived out of order, and is discarded and
counted (``late_discarded``) rather than silently folded in at the
wrong position.  An admitted event is released at once, so nothing is
ever held for reordering.
"""

from __future__ import annotations

from repro.live.bus import TelemetryEvent


class WatermarkBuffer:
    """Late-event filter: admits events in non-decreasing event time."""

    #: events held for reordering — none, an admitted event is
    #: released at once
    buffered = 0

    def __init__(self) -> None:
        #: no event before this time is still expected
        self.watermark = float("-inf")
        self.late_discarded = 0

    def admit(self, event: TelemetryEvent) -> bool:
        """Whether ``event`` is at or after the watermark, which then
        advances to it; a late event is counted and refused."""
        if event.time < self.watermark:
            self.late_discarded += 1
            return False
        self.watermark = float(event.time)
        return True
