"""Trace capture, reload and offline analysis."""

import pytest

from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime
from repro.core.system import VedrfolnirSystem
from repro.simnet.network import Network
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms
from repro.traces import TraceRecorder, analyze_trace, load_trace

NODES = ["h0", "h4", "h8", "h12"]


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """One contended collective, captured live and written to disk."""
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, ring_allgather(NODES, 200_000))
    system = VedrfolnirSystem(net, runtime)
    recorder = TraceRecorder.attach(net, runtime)
    runtime.start()
    bf = net.create_flow("h1", "h4", 2_500_000)
    bf.start()
    net.run_until_quiet(max_time=ms(100))
    assert runtime.completed
    path = tmp_path_factory.mktemp("traces") / "run.jsonl"
    recorder.write(path)
    live_diagnosis = system.analyze()
    return path, runtime, live_diagnosis, bf.key


def test_trace_file_loads(recorded_run):
    path, runtime, _, _ = recorded_run
    trace = load_trace(path)
    assert trace.schedule.nodes == NODES
    assert len(trace.step_records) == len(runtime.records)
    assert trace.reports, "telemetry reports should be captured"
    assert trace.pfc_xoff_bytes > 0
    assert trace.meta["topology"] == "fat-tree-k4"


def test_flow_keys_and_expected_times_roundtrip(recorded_run):
    path, runtime, _, _ = recorded_run
    trace = load_trace(path)
    assert trace.flow_keys == runtime.flow_keys
    for step in runtime.schedule.all_steps():
        key = (step.node, step.step_index)
        assert trace.expected_step_times[key] == pytest.approx(
            runtime.expected_step_time_ns(step))


def test_offline_analysis_matches_live(recorded_run):
    path, _, live, bf_key = recorded_run
    offline = analyze_trace(load_trace(path))
    live_path = [(e.node, e.step_index) for e in live.critical_path]
    offline_path = [(e.node, e.step_index)
                    for e in offline.critical_path]
    assert offline_path == live_path
    assert offline.bottleneck_steps == live.bottleneck_steps
    assert {f.type for f in offline.result.findings} == \
        {f.type for f in live.result.findings}
    assert offline.detected_flows == live.detected_flows
    assert bf_key in offline.detected_flows


def test_offline_contributor_scores_match_live(recorded_run):
    path, _, live, bf_key = recorded_run
    offline = analyze_trace(load_trace(path))
    assert offline.collective_scores.keys() == \
        live.collective_scores.keys()
    for key, score in live.collective_scores.items():
        assert offline.collective_scores[key] == pytest.approx(score)


def test_missing_schedule_rejected(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"kind": "meta", "version": 1}\n')
    with pytest.raises(ValueError, match="no schedule"):
        load_trace(path)


def test_unknown_kind_warns_and_counts(recorded_run, tmp_path):
    path, _, _, _ = recorded_run
    padded = tmp_path / "extended.jsonl"
    padded.write_text(path.read_text()
                      + '{"kind": "mystery", "x": 1}\n'
                      + '{"kind": "mystery", "x": 2}\n'
                      + '{"kind": "gadget"}\n')
    with pytest.warns(UserWarning, match="unknown trace record kind"):
        trace = load_trace(padded)
    assert trace.schedule.nodes == NODES
    assert trace.unknown_kinds == {"mystery": 2, "gadget": 1}


def test_known_kinds_leave_no_unknown_counts(recorded_run):
    path, _, _, _ = recorded_run
    assert load_trace(path).unknown_kinds == {}


def test_version_mismatch_rejected(tmp_path):
    from repro.traces.store import TraceFormatError

    path = tmp_path / "future.jsonl"
    path.write_text('\n{"kind": "meta", "version": 99}\n')
    with pytest.raises(TraceFormatError,
                       match=r"found 99, expected 1 \(line 2\)") \
            as excinfo:
        load_trace(path)
    assert excinfo.value.line_no == 2
    # TraceFormatError stays a ValueError for existing callers
    assert isinstance(excinfo.value, ValueError)


def test_blank_lines_tolerated(recorded_run, tmp_path):
    path, _, _, _ = recorded_run
    padded = tmp_path / "padded.jsonl"
    padded.write_text(path.read_text() + "\n\n")
    assert load_trace(padded).schedule.nodes == NODES


def test_unknown_kinds_routed_to_quarantine(recorded_run, tmp_path):
    """Offline loads account rejects through the same Quarantine the
    live pipeline uses, not a private counter."""
    path, _, _, _ = recorded_run
    padded = tmp_path / "quarantined.jsonl"
    padded.write_text(path.read_text()
                      + '{"kind": "mystery", "x": 1}\n'
                      + '{"kind": "gadget"}\n')
    with pytest.warns(UserWarning, match="unknown trace record kind"):
        trace = load_trace(padded)
    assert trace.quarantine is not None
    assert trace.quarantine.count == 2  # mystery x1 + gadget x1
    assert trace.quarantine.by_reason == \
        {"unknown trace record kind": 2}
    assert all(entry.snippet for entry in trace.quarantine.entries)


def test_clean_trace_has_empty_quarantine(recorded_run):
    path, _, _, _ = recorded_run
    trace = load_trace(path)
    assert trace.quarantine.count == 0
    assert trace.quarantine.by_reason == {}
