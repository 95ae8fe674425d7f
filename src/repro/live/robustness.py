"""Fault containment for the live pipeline.

Two failure classes a long-running diagnosis service must absorb
without crashing:

* **malformed input** — a truncated JSONL line, a record whose fields
  fail to decode, an unknown ``kind``.  :class:`Quarantine` wraps the
  decode step: bad entries are counted, a bounded sample of errors is
  retained for operators, and the pipeline never sees them;
* **telemetry loss** — switches that stop reporting while the
  collective is clearly still running.  :class:`DegradationTracker`
  watches the gap between host-side event time and the freshest switch
  report; when reports go stale the diagnosis *confidence* is widened
  (lowered) instead of silently presenting a contention-free picture
  built from missing evidence.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from repro.core.units import Nanoseconds

log = logging.getLogger(__name__)

#: rejected inputs a :class:`Quarantine` retains as a sample
QUARANTINE_KEEP = 32
#: :class:`DegradationTracker`'s confidence with no switch reports
CONFIDENCE_FLOOR = 0.25


@dataclass
class QuarantinedEntry:
    """One rejected input, kept for the operator's post-mortem."""

    line_no: int
    reason: str
    snippet: str


class Quarantine:
    """Never-crash decode boundary with bounded error retention."""

    def __init__(self) -> None:
        self.count = 0
        self.by_reason: dict[str, int] = {}
        self.entries: list[QuarantinedEntry] = []

    @staticmethod
    def label_for(reason: str) -> str:
        """Normalize a free-form reason to a stable aggregation label.

        Leading whitespace and colons are stripped before the label is
        cut at the first remaining colon, so ``": EOFError: x"``,
        ``"EOFError: x"`` and ``"  EOFError : x"`` all aggregate under
        ``"EOFError"``; anything that normalizes to the empty string
        (all-whitespace, bare colons) lands under ``"unknown"``.
        """
        return reason.strip().lstrip(":").split(":", 1)[0].strip() \
            or "unknown"

    def admit(self, line_no: int, reason: str, snippet: str = "") -> None:
        """Record one rejected input."""
        self.count += 1
        reason = reason.strip()
        label = self.label_for(reason)
        self.by_reason[label] = self.by_reason.get(label, 0) + 1
        if len(self.entries) < QUARANTINE_KEEP:
            self.entries.append(QuarantinedEntry(
                line_no=line_no, reason=reason,
                snippet=snippet[:120]))
        log.warning("quarantined line %d: %s", line_no, reason)

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "by_reason": dict(sorted(self.by_reason.items())),
            "sample": [
                {"line": e.line_no, "reason": e.reason,
                 "snippet": e.snippet}
                for e in self.entries],
        }


class DegradationTracker:
    """Confidence widening under switch-telemetry loss.

    ``report_gap_ns`` is how stale the freshest switch report may be —
    relative to the freshest *host-side* event time — before the
    diagnosis degrades.  Confidence decays linearly from 1.0 at the
    allowed gap down to :data:`CONFIDENCE_FLOOR` at ``3x`` the allowed
    gap; a stream with step records but no switch reports at all sits at
    the floor.
    """

    def __init__(self, report_gap_ns: Nanoseconds) -> None:
        self.report_gap_ns = max(1.0, report_gap_ns)
        self.last_step_time = float("-inf")
        self.last_report_time = float("-inf")
        self.step_events = 0
        self.report_events = 0

    # ------------------------------------------------------------------
    def observe_step(self, event_time: float) -> None:
        self.step_events += 1
        self.last_step_time = max(self.last_step_time, event_time)

    def observe_report(self, event_time: float) -> None:
        self.report_events += 1
        self.last_report_time = max(self.last_report_time, event_time)

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        return self.confidence() < 1.0

    def staleness_ns(self) -> float:
        """How far switch telemetry lags the host-side stream."""
        if self.step_events == 0:
            return 0.0
        if self.report_events == 0:
            return float("inf")
        return max(0.0, self.last_step_time - self.last_report_time)

    def confidence(self) -> float:
        """1.0 = full telemetry; :data:`CONFIDENCE_FLOOR` = switch
        reports missing."""
        staleness = self.staleness_ns()
        if staleness <= self.report_gap_ns:
            return 1.0
        if staleness == float("inf"):
            return CONFIDENCE_FLOOR
        # linear decay over (gap, 3*gap]
        span = 2.0 * self.report_gap_ns
        excess = min(staleness - self.report_gap_ns, span)
        return max(CONFIDENCE_FLOOR,
                   1.0 - (1.0 - CONFIDENCE_FLOOR) * excess / span)

    def to_dict(self) -> dict:
        staleness = self.staleness_ns()
        return {
            "confidence": round(self.confidence(), 4),
            "degraded": self.degraded,
            "report_staleness_ns":
                None if staleness == float("inf") else staleness,
            "step_events": self.step_events,
            "report_events": self.report_events,
        }
