"""The types a trace reader hands out.

There is one reader — :func:`repro.traces.open_trace`, which returns a
:class:`~repro.traces.columnar.ColumnarTrace` over either on-disk
format — and these are the shapes it speaks:

* :class:`TraceHeader` — the prologue (``meta`` / ``schedule`` /
  ``flow_key`` / ``expected`` entries), everything the analyzer needs
  before the stream starts;
* :class:`TraceEvent` — one ``step_record`` / ``switch_report`` of the
  monitoring stream, delivered in *completion-time order*, the order
  the paper's analyzer queues entries in (§III-D1);
* :data:`ErrorSink` — the quarantine callback
  ``on_error(line_no, reason, snippet)``: with one, a reader reports a
  malformed line and skips it instead of raising, so one bad line
  cannot take down a replay;
* :class:`TraceTruncated` — a JSONL file that ends mid-record (a
  crashed writer, a reader racing the recorder).  Its ``byte_offset``
  is the first byte of the partial record: everything before it is
  intact.

Resumability has one coordinate: how many events of the merged stream
were delivered (:attr:`repro.live.checkpoint.TraceReplayer.published`).
The merge order is a pure function of the capture's contents, so a cursor
taken against one on-disk format resumes against the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.collective.primitives import StepSchedule
from repro.simnet.packet import FlowKey
from repro.traces.store import TraceFormatError

#: quarantine callback: (line_no, reason, snippet)
ErrorSink = Callable[[int, str, str], None]

#: record kinds that belong to the monitoring stream (vs the prologue)
DATA_KINDS = ("step_record", "switch_report")


class TraceTruncated(TraceFormatError):
    """The file ends in the middle of a record.

    ``byte_offset`` is the offset of the partial record's first byte —
    everything before it is intact, so it is where a reader picks the
    file up again once the writer finishes (or the operator chops) the
    broken tail.
    """

    def __init__(self, message: str, line_no: Optional[int] = None,
                 byte_offset: Optional[int] = None) -> None:
        if byte_offset is not None:
            message = f"{message} (resume at byte {byte_offset})"
        super().__init__(message, line_no)
        self.byte_offset = byte_offset


@dataclass
class TraceHeader:
    """Everything the analyzer needs *before* the stream starts."""

    schedule: StepSchedule
    flow_keys: dict[tuple[str, int], FlowKey] = field(
        default_factory=dict)
    expected_step_times: dict[tuple[str, int], float] = field(
        default_factory=dict)
    pfc_xoff_bytes: int = 0
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TraceEvent:
    """One decoded monitoring-stream entry.

    ``time`` is the event's completion/emission time in simulation
    nanoseconds — a step record's ``end_time``, a switch report's
    ``time``.  ``line_no`` is the record's line in the JSONL form of
    the capture (0 for synthetic events).
    """

    kind: str
    time: float
    payload: object
    line_no: int
