"""Fault injection: the live pipeline must degrade, never crash.

Covers the contract that truncated JSONL lines and duplicate records
produce a snapshot plus nonzero quarantine/duplicate counters — and
never an exception.
"""

import random

import pytest

from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.core.system import VedrfolnirSystem
from repro.live import LivePipeline, PipelineConfig
from repro.live.robustness import (
    CONFIDENCE_FLOOR,
    QUARANTINE_KEEP,
    DegradationTracker,
    Quarantine,
)
from repro.simnet.network import Network
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms
from repro.traces import TraceRecorder, read_header, trace_events

NODES = ["h0", "h4", "h8", "h12"]


@pytest.fixture(scope="module")
def clean_trace(tmp_path_factory):
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 150_000))
    VedrfolnirSystem(net, runtime)  # triggers switch telemetry
    recorder = TraceRecorder.attach(net, runtime)
    runtime.start()
    net.create_flow("h1", "h4", 1_500_000, tag="background").start()
    net.run_until_quiet(max_time=ms(100))
    assert runtime.completed
    path = tmp_path_factory.mktemp("fault") / "clean.jsonl"
    recorder.write(path)
    return path


def serve_file(path, config=None) -> tuple:
    """Replay a (possibly corrupt) file exactly like ``repro serve``."""
    pipeline = LivePipeline.from_header(
        read_header(path), config)

    def quarantine_line(line_no, reason, snippet):
        pipeline.quarantine.admit(line_no, reason, snippet)

    for event in trace_events(path, on_error=quarantine_line):
        pipeline.publish(event)
    return pipeline, pipeline.finish()


def test_truncated_lines_quarantined(clean_trace, tmp_path):
    corrupt = tmp_path / "truncated.jsonl"
    lines = clean_trace.read_text().splitlines()
    rng = random.Random(11)
    data_lines = [i for i, line in enumerate(lines)
                  if '"step_record"' in line
                  or '"switch_report"' in line]
    chopped = set(rng.sample(data_lines, 5))
    corrupt.write_text("\n".join(
        line[:len(line) // 2] if i in chopped else line
        for i, line in enumerate(lines)) + "\n")

    pipeline, final = serve_file(corrupt)
    assert pipeline.quarantine.count >= 5
    assert final.counters["quarantined"] >= 5
    assert final.critical_path, "snapshot still produced"
    sample = pipeline.quarantine.to_dict()
    assert sample["count"] == pipeline.quarantine.count
    assert sample["sample"][0]["line"] > 0


def test_garbage_and_wrong_shape_lines(clean_trace, tmp_path):
    corrupt = tmp_path / "garbage.jsonl"
    garbage = [
        "not json at all",
        '{"kind": "step_record"}',            # fields missing
        '[1, 2, 3]',                          # not an object
        '{"kind": "step_record", "node": "h0", "step": "NaNny"}',
    ]
    corrupt.write_text(clean_trace.read_text()
                       + "\n".join(garbage) + "\n")
    pipeline, final = serve_file(corrupt)
    assert pipeline.quarantine.count >= 3
    assert final.critical_path
    # reasons are grouped for the operator
    assert pipeline.quarantine.by_reason


def test_duplicate_records_counted_not_fatal(clean_trace, tmp_path):
    duplicated = tmp_path / "dupes.jsonl"
    lines = clean_trace.read_text().splitlines()
    out = []
    dupes = 0
    for line in lines:
        out.append(line)
        if '"step_record"' in line and dupes < 7:
            out.append(line)
            dupes += 1
    duplicated.write_text("\n".join(out) + "\n")
    pipeline, final = serve_file(duplicated)
    assert final.counters["duplicates"] == 7
    assert final.critical_path


def assert_stamps_bounded(pipeline) -> None:
    """An arrival stamp outlives its event only as a latency the next
    snapshot observes, and only for an ingested event: a late event
    leaves nothing behind."""
    assert len(pipeline._pending_arrivals) == pipeline._since_snapshot


def test_shed_events_leave_no_arrival_stamp(clean_trace):
    # a reordered stream: what arrives behind the watermark is dropped
    events = list(trace_events(clean_trace))
    rng = random.Random(5)
    for start in range(0, len(events), 12):
        window = events[start:start + 12]
        rng.shuffle(window)
        events[start:start + 12] = window
    pipeline = LivePipeline.from_header(
        read_header(clean_trace))
    for event in events:
        pipeline.publish(event)
        pipeline.pump()
        assert_stamps_bounded(pipeline)
    assert pipeline.watermark.late_discarded > 0


def test_unknown_event_kind_is_quarantined():
    from repro.live.bus import TelemetryEvent

    pipeline = LivePipeline(ring_allgather(NODES, 1000), {}, {}, 0)
    pipeline.bus.publish(TelemetryEvent("mystery", 1.0, None, seq=1))
    pipeline.pump()
    assert pipeline.quarantine.count == 1


def test_quarantine_bounds_retained_sample():
    quarantine = Quarantine()
    for i in range(QUARANTINE_KEEP + 10):
        quarantine.admit(i, f"ValueError: bad {i}", snippet="x" * 500)
    assert quarantine.count == QUARANTINE_KEEP + 10
    assert len(quarantine.entries) == QUARANTINE_KEEP
    assert all(len(e.snippet) <= 120 for e in quarantine.entries)
    assert quarantine.by_reason == {"ValueError": QUARANTINE_KEEP + 10}



def test_degradation_tracker_profile():
    tracker = DegradationTracker(report_gap_ns=100.0)
    assert tracker.confidence() == 1.0       # nothing seen yet
    tracker.observe_step(1000.0)
    assert tracker.confidence() == CONFIDENCE_FLOOR  # steps, no reports
    tracker.observe_report(990.0)
    assert tracker.confidence() == 1.0       # fresh report
    tracker.observe_step(1200.0)             # report now 210ns stale
    assert CONFIDENCE_FLOOR < tracker.confidence() < 1.0
    tracker.observe_step(5000.0)             # far beyond 3x gap
    assert tracker.confidence() == CONFIDENCE_FLOOR
    data = tracker.to_dict()
    assert data["degraded"] is True
    assert data["report_staleness_ns"] == pytest.approx(4010.0)


# ----------------------------------------------------------------------
# reason-label normalization (quarantine aggregation keys)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("reason,label", [
    ("EOFError: unexpected end", "EOFError"),
    (":EOFError: unexpected end", "EOFError"),
    ("  : weird input", "weird input"),
    ("  EOFError : colon spacing", "EOFError"),
    ("   ", "unknown"),
    ("", "unknown"),
    ("::", "unknown"),
    ("no colon here", "no colon here"),
])
def test_label_for_normalizes(reason, label):
    assert Quarantine.label_for(reason) == label


def test_admit_aggregates_equivalent_reasons_once():
    quarantine = Quarantine()
    quarantine.admit(1, "ValueError: bad json")
    quarantine.admit(2, ":ValueError: other bad json")
    quarantine.admit(3, "  ValueError : yet another")
    quarantine.admit(4, "   ")
    assert quarantine.by_reason == {"ValueError": 3, "unknown": 1}
    assert quarantine.count == 4
    # retained samples keep the stripped full reason, not the label
    assert quarantine.entries[1].reason == ":ValueError: other bad json"
