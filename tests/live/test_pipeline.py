"""End-to-end live pipeline: equivalence with the batch analyzer,
rolling snapshots, degradation, and metrics export."""

import math

import pytest

from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.core.system import VedrfolnirSystem
from repro.live import LivePipeline, PipelineConfig
from repro.live.pipeline import PUMP_BATCH, TOP_CONTRIBUTORS, snapshot_line
from repro.live.robustness import CONFIDENCE_FLOOR
from repro.simnet.network import Network
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms
from repro.traces import (TraceEvent, TraceRecorder, analyze_trace,
                          load_trace, read_header, trace_events)

NODES = ["h0", "h4", "h8", "h12"]


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """One contended collective captured to JSONL."""
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 200_000))
    VedrfolnirSystem(net, runtime)  # triggers switch telemetry
    recorder = TraceRecorder.attach(net, runtime)
    runtime.start()
    net.create_flow("h1", "h4", 2_500_000).start()
    net.run_until_quiet(max_time=ms(100))
    assert runtime.completed
    path = tmp_path_factory.mktemp("live") / "run.jsonl"
    recorder.write(path)
    return path


def replay(path, config=None) -> LivePipeline:
    pipeline = LivePipeline.from_header(read_header(path), config)
    for event in trace_events(path):
        pipeline.publish(event)
    return pipeline


def assert_matches_batch(final, batch) -> None:
    assert [(e.node, e.step_index) for e in final.critical_path] == \
        [(e.node, e.step_index) for e in batch.critical_path]
    assert final.bottleneck_steps == batch.bottleneck_steps
    assert {(f.type, tuple(sorted(map(str, f.root_ports))))
            for f in final.result.findings} == \
        {(f.type, tuple(sorted(map(str, f.root_ports))))
         for f in batch.result.findings}
    assert final.detected_flows == batch.detected_flows
    assert final.collective_scores.keys() == \
        batch.collective_scores.keys()
    for key, score in batch.collective_scores.items():
        assert math.isclose(final.collective_scores[key], score,
                            rel_tol=1e-9, abs_tol=1e-9)
    assert final.top_contributors(1) == batch.top_contributors(1)


def test_final_snapshot_matches_batch(trace_path):
    batch = analyze_trace(load_trace(trace_path))
    pipeline = replay(trace_path, PipelineConfig(snapshot_every=50))
    assert_matches_batch(pipeline.finish(), batch)


@pytest.fixture(scope="module")
def long_trace_path(golden_capture):
    """The golden incast case: a few pump batches of events."""
    return golden_capture[1] / "incast.jsonl"


def test_a_burst_never_queues_more_than_one_batch(long_trace_path):
    """The whole trace published with no explicit pump: ``publish``
    pumps the bus itself, so it never holds more than one batch, and
    nothing is lost — the final snapshot is the batch diagnosis."""
    trace_path = long_trace_path
    events = list(trace_events(trace_path))
    assert len(events) > PUMP_BATCH
    pipeline = LivePipeline.from_header(read_header(trace_path))
    for event in events:
        pipeline.publish(event)
        assert len(pipeline.bus) <= PUMP_BATCH
    final = pipeline.finish()
    assert final.counters["bus_high_watermark"] == PUMP_BATCH
    assert_matches_batch(final, analyze_trace(load_trace(trace_path)))


def test_final_snapshot_renders_like_batch(trace_path):
    """One text renderer: the final snapshot's report (what ``repro
    serve`` prints) is the batch diagnosis's (what ``repro diagnose``
    prints)."""
    from repro.core.reports import render_text

    batch = analyze_trace(load_trace(trace_path))
    final = replay(trace_path, PipelineConfig(snapshot_every=50)).finish()
    assert render_text(final) == render_text(batch)


def test_rolling_snapshots_emitted(trace_path):
    pipeline = replay(trace_path, PipelineConfig(snapshot_every=8))
    final = pipeline.finish()
    assert len(pipeline.snapshots) >= 2
    assert pipeline.snapshots[-1] is final
    assert final.final
    assert not pipeline.snapshots[0].final
    # rolling snapshots see a prefix of the stream
    first = pipeline.snapshots[0]
    assert first.step_records_ingested <= final.step_records_ingested
    assert first.watermark_ns <= final.watermark_ns
    # counters land in every snapshot
    assert final.counters["consumed"] == final.counters["published"]
    assert final.counters["quarantined"] == 0


def test_a_raising_callback_leaves_the_rest_of_the_batch_queued(
        trace_path):
    """A snapshot callback that raises part-way through a pump ends it:
    the events after the one that emitted the snapshot stay on the bus,
    not counted as consumed, and the next pump carries on as if nothing
    had happened."""
    events = list(trace_events(trace_path))[:PUMP_BATCH - 1]
    config = PipelineConfig(snapshot_every=5)
    clean = LivePipeline.from_header(read_header(trace_path), config)
    broken = LivePipeline.from_header(read_header(trace_path), config)

    def fail(snapshot) -> None:
        broken.on_snapshot.remove(fail)
        raise RuntimeError("callback failed")

    broken.on_snapshot.append(fail)
    for pipeline in (clean, broken):
        for event in events:
            pipeline.publish(event)         # fewer than a batch: no pump
    with pytest.raises(RuntimeError):
        broken.pump()
    counters = broken.counters()
    assert 0 < len(broken.bus) < len(events)
    assert counters["bus_depth"] == len(broken.bus)
    assert counters["consumed"] + len(broken.bus) == len(events)
    broken.pump()
    assert len(broken.bus) == 0
    assert broken.finish().canonical_json() == clean.finish().canonical_json()


def test_snapshot_callbacks_and_summary(trace_path):
    pipeline = replay(trace_path, PipelineConfig(snapshot_every=0))
    seen = []
    pipeline.on_snapshot.append(seen.append)
    final = pipeline.finish()
    assert seen == [final]
    payload = final.to_dict()
    line = snapshot_line(payload)
    assert "FINAL" in line
    assert "anomalies=" in line
    assert payload["final"] is True
    assert payload["step_records"] == final.step_records_ingested
    assert len(payload["contributors"]) <= TOP_CONTRIBUTORS


def test_live_attachment_to_running_collective():
    """The pipeline can consume a simulation directly (no trace)."""
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 150_000))
    VedrfolnirSystem(net, runtime)  # triggers switch telemetry
    pipeline = LivePipeline(
        runtime.schedule, {}, {}, net.config.pfc_xoff_bytes)
    runtime.step_end_listeners.append(lambda record: pipeline.publish(
        TraceEvent("step_record", record.end_time, record, line_no=0)))
    net.set_report_sink(lambda report: pipeline.publish(
        TraceEvent("switch_report", report.time, report, line_no=0)))
    runtime.start()
    net.create_flow("h1", "h4", 1_000_000).start()
    net.run_until_quiet(max_time=ms(100))
    assert runtime.completed
    # flow keys arrive lazily in a live deployment
    pipeline.flow_keys.update(runtime.flow_keys)
    for step in runtime.schedule.all_steps():
        pipeline.expected_step_times[(step.node, step.step_index)] = \
            runtime.expected_step_time_ns(step)
    final = pipeline.finish()
    assert final.step_records_ingested == len(runtime.records)
    assert final.critical_path
    # the flow keys learnt late are the collective flows the final
    # verdict rates against: none of them scores as background traffic
    collective = set(runtime.flow_keys.values())
    assert pipeline.collective_flow_keys == collective
    assert final.collective_scores
    assert not collective & set(final.collective_scores)
    # the producer never pumps: publish keeps the bus one batch deep
    assert final.counters["bus_high_watermark"] <= PUMP_BATCH


def test_degradation_when_reports_missing(trace_path):
    header = read_header(trace_path)
    pipeline = LivePipeline.from_header(header)
    for event in trace_events(trace_path):
        if event.kind == "switch_report":
            continue                   # telemetry loss: no switch data
        pipeline.publish(event)
    final = pipeline.finish()
    assert final.switch_reports_ingested == 0
    assert final.degraded
    assert final.confidence == CONFIDENCE_FLOOR
    # the waiting-graph side still works without switch telemetry
    assert final.critical_path


def test_confidence_full_on_clean_stream(trace_path):
    pipeline = replay(trace_path)
    final = pipeline.finish()
    assert final.confidence == 1.0
    assert not final.degraded


def test_metrics_export(trace_path):
    pipeline = replay(trace_path, PipelineConfig(snapshot_every=40))
    pipeline.finish()
    registry = pipeline.build_metrics()
    assert registry["live_step_records_total"].value > 0
    assert registry["live_switch_reports_total"].value > 0
    assert registry["live_quarantined_total"].value == 0
    assert registry["live_snapshots_total"].value == \
        len(pipeline.snapshots)
    assert registry["live_ingest_to_snapshot_seconds"].total > 0
    assert registry["live_ingest_rate_per_sec"].value > 0


#: (graph_pruned, graph_retained) at stream end of two golden cases, 56
#: step records each (an 8-node ring): in a ring every record is waited
#: on by a later step until the collective's last steps arrive, so the
#: in-degree-zero prune can only begin at the end of the stream, and at
#: PRUNE_INTERVAL 16 the last pass (at the 48th record) comes before the
#: incast case's last layer is in
PRUNED_AT_END = {"incast": (0, 56), "pfc_storm": (4, 52)}


@pytest.mark.parametrize("scenario", sorted(PRUNED_AT_END))
def test_what_the_waiting_graph_prunes_of_a_golden_case(scenario,
                                                        golden_capture):
    path = golden_capture[1] / f"{scenario}.jsonl"
    final = replay(path, PipelineConfig(snapshot_every=32)).finish()
    assert (final.counters["graph_pruned"],
            final.counters["graph_retained"]) == PRUNED_AT_END[scenario]
