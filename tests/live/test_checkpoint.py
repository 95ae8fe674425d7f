"""Checkpoint subsystem: atomic writes, checksum validation, fallback,
retention, cursor round-trips, mid-stream resume equivalence, and
hostile checkpoint documents."""

import hashlib
import itertools
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anomalies.scenarios import ScenarioConfig, make_cases
from repro.experiments.harness import make_system
from repro.live import LivePipeline, PipelineConfig
from repro.live.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCorrupt,
    CheckpointManager,
    CheckpointPolicy,
    ReplayCursor,
    TraceReplayer,
    resume_or_create,
)
from repro.traces import (TraceEvent, TraceRecorder, read_header,
                          trace_events, write_columnar)


def record_scenario_trace(path):
    """A flow-contention scenario capture: a few hundred data events,
    enough for multi-checkpoint cadences and spread-out kill points."""
    config = ScenarioConfig(scale=0.002, base_seed=42)
    case = make_cases("flow_contention", 1, config)[0]
    system = make_system("vedrfolnir")
    network, runtime = case.build_network()
    system.attach(network, runtime)
    recorder = TraceRecorder.attach(network, runtime)
    runtime.start()
    case.inject(network, runtime)
    network.run_until_quiet(max_time=config.run_deadline_ns())
    assert runtime.completed
    recorder.write(path)
    return path


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return record_scenario_trace(
        tmp_path_factory.mktemp("ckpt") / "run.jsonl")


def final_json(snapshot) -> str:
    return json.dumps(snapshot.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# ReplayCursor
# ----------------------------------------------------------------------
def test_cursor_ignores_synthetic_events():
    cursor = ReplayCursor()
    cursor.advance(TraceEvent("step_record", 1.0, None, 0))
    assert cursor.published == 1


# ----------------------------------------------------------------------
# CheckpointManager
# ----------------------------------------------------------------------
def make_state(published: int, filler: str = "x") -> dict:
    return {"cursor": {"published": published, "positions": {}},
            "filler": filler}


def test_save_load_roundtrip(tmp_path):
    manager = CheckpointManager(tmp_path)
    path = manager.save(make_state(42))
    assert path.name == "ckpt-0000000042.json"
    assert manager.load(path) == make_state(42)
    assert manager.load_latest() == make_state(42)
    assert manager.written == 1
    assert manager.last_bytes == path.stat().st_size


def test_no_tmp_files_survive(tmp_path):
    manager = CheckpointManager(tmp_path)
    manager.save(make_state(1))
    manager.save(make_state(2))
    assert not list(tmp_path.glob("*.tmp"))


def test_corrupt_latest_falls_back(tmp_path):
    manager = CheckpointManager(tmp_path)
    manager.save(make_state(10))
    newest = manager.save(make_state(20))
    data = bytearray(newest.read_bytes())
    data[len(data) // 2] ^= 0xFF
    newest.write_bytes(bytes(data))

    assert manager.load_latest() == make_state(10)
    assert manager.corrupt_skipped == 1
    assert manager.fallbacks == 1


def test_truncated_latest_falls_back(tmp_path):
    manager = CheckpointManager(tmp_path)
    manager.save(make_state(10))
    newest = manager.save(make_state(20))
    newest.write_bytes(newest.read_bytes()[: newest.stat().st_size // 2])
    assert manager.load_latest() == make_state(10)


def test_all_corrupt_returns_none(tmp_path):
    manager = CheckpointManager(tmp_path)
    for published in (10, 20):
        path = manager.save(make_state(published))
        path.write_bytes(b"not json at all")
    assert manager.load_latest() is None
    assert manager.corrupt_skipped == 2


def test_version_mismatch_is_corrupt(tmp_path):
    manager = CheckpointManager(tmp_path)
    path = manager.save(make_state(5))
    document = json.loads(path.read_text())
    document["version"] = CHECKPOINT_VERSION + 1
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointCorrupt, match="version"):
        manager.load(path)


def test_checksum_guards_state_tamper(tmp_path):
    manager = CheckpointManager(tmp_path)
    path = manager.save(make_state(5))
    document = json.loads(path.read_text())
    document["state"]["filler"] = "tampered"
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointCorrupt, match="checksum"):
        manager.load(path)


def test_retention_keeps_last_k(tmp_path):
    manager = CheckpointManager(
        tmp_path, CheckpointPolicy(retain=2))
    for published in (1, 2, 3, 4):
        manager.save(make_state(published))
    names = [p.name for p in manager.snapshot_paths()]
    assert names == ["ckpt-0000000003.json", "ckpt-0000000004.json"]
    assert manager.pruned == 2


def test_register_metrics(tmp_path):
    from repro.live.metrics import MetricsRegistry

    manager = CheckpointManager(tmp_path)
    manager.save(make_state(1))
    manager.load_latest()
    registry = MetricsRegistry()
    manager.register_metrics(registry)
    assert registry["live_checkpoints_written_total"].value == 1
    assert registry["live_checkpoints_loaded_total"].value == 1
    assert registry["live_checkpoint_bytes"].value > 0
    assert "live_checkpoint_write_seconds" in registry


# ----------------------------------------------------------------------
# pipeline state round-trip + resume equivalence
# ----------------------------------------------------------------------
def test_pipeline_state_roundtrip_mid_stream(trace_path):
    header = read_header(trace_path)
    config = PipelineConfig(snapshot_every=16)
    pipeline = LivePipeline.from_header(header, config)
    events = list(trace_events(trace_path))
    cut = len(events) // 2
    for event in events[:cut]:
        pipeline.publish(event)
        if len(pipeline.bus) >= 32:
            pipeline.pump(32)

    state = pipeline.state_dict({"published": cut, "positions": {}})
    # the state must survive a JSON round-trip bit-exactly
    state = json.loads(json.dumps(state))
    restored, cursor = LivePipeline.restore(header, state,
                                            config=config)
    assert cursor["published"] == cut

    for original in (pipeline, restored):
        for event in events[cut:]:
            original.publish(event)
            if len(original.bus) >= 32:
                original.pump(32)
    assert final_json(pipeline.finish()) == \
        final_json(restored.finish())


def test_replayer_checkpoints_and_resumes(trace_path, tmp_path):
    header = read_header(trace_path)
    config = PipelineConfig(snapshot_every=16)

    baseline = LivePipeline.from_header(header, config)
    expected = TraceReplayer(
        baseline, trace_events(trace_path)).run()

    manager = CheckpointManager(
        tmp_path, CheckpointPolicy(interval_events=32))
    pipeline = LivePipeline.from_header(header, config)
    total = sum(1 for _ in trace_events(trace_path))
    stop_at = total // 2

    partial = TraceReplayer(
        pipeline, itertools.islice(trace_events(trace_path), stop_at),
        manager)
    partial.run(finish=False)
    partial.checkpoint()

    resumed, cursor, was_resumed = resume_or_create(header, manager,
                                                    config=config)
    assert was_resumed
    assert cursor.published == stop_at
    rest = trace_events(trace_path, cursor=cursor)
    final = TraceReplayer(resumed, rest, manager, cursor).run()
    assert final_json(final) == final_json(expected)
    assert manager.written >= 2


def test_resume_keeps_step_windows_in_step_order(tmp_path):
    """A checkpoint document's keys are sorted as strings, so step
    "10" is stored before step "2".  Eq. 3 sums the per-step windows in
    the graph's order, which a resume must rebuild as the integer step
    order an uninterrupted replay builds them in (a 12-node ring has
    11 steps)."""
    from tests.fleet.conftest import record_scenario_trace

    trace = record_scenario_trace(tmp_path / "incast-n12.jsonl",
                                  "incast", 12)
    header = read_header(trace)
    config = PipelineConfig(snapshot_every=16)
    baseline = LivePipeline.from_header(header, config)
    expected = TraceReplayer(baseline, trace_events(trace)).run()
    assert len(baseline.graph.windows) >= 11
    assert list(baseline.graph.windows) \
        == sorted(baseline.graph.windows)

    manager = CheckpointManager(tmp_path / "ckpt")
    stop_at = sum(1 for _ in trace_events(trace)) - 2
    partial = TraceReplayer(
        LivePipeline.from_header(header, config),
        itertools.islice(trace_events(trace), stop_at), manager)
    partial.run(finish=False)
    partial.checkpoint()

    resumed, cursor, was_resumed = resume_or_create(header, manager,
                                                    config=config)
    assert was_resumed and cursor.published == stop_at
    final = TraceReplayer(resumed, trace_events(trace, cursor=cursor),
                          manager, cursor).run()
    assert list(resumed.graph.windows) == list(baseline.graph.windows)
    assert final.canonical_json() == expected.canonical_json()


def test_resume_or_create_fresh_skips_checkpoints(trace_path,
                                                  tmp_path):
    header = read_header(trace_path)
    manager = CheckpointManager(tmp_path)
    pipeline = LivePipeline.from_header(header)
    TraceReplayer(pipeline, trace_events(trace_path), manager).run()
    assert manager.snapshot_paths()

    _fresh, cursor, resumed = resume_or_create(header, manager,
                                               fresh=True)
    assert not resumed
    assert cursor.published == 0


def test_checkpoint_policy_max_unflushed_forces_save(trace_path,
                                                     tmp_path):
    header = read_header(trace_path)
    manager = CheckpointManager(
        tmp_path, CheckpointPolicy(interval_events=10 ** 9,
                                   max_unflushed_events=16))
    pipeline = LivePipeline.from_header(header)
    TraceReplayer(pipeline, trace_events(trace_path), manager).run()
    # every 16 events the unflushed bound forces a checkpoint even
    # though the normal cadence would never fire
    assert manager.written >= 3


# ----------------------------------------------------------------------
# cross-format resume (the (format, kind, record-index) contract)
# ----------------------------------------------------------------------
def test_cursor_counts_round_trip():
    cursor = ReplayCursor()
    cursor.advance(TraceEvent("step_record", 1.0, None, 10))
    cursor.advance(TraceEvent("switch_report", 2.0, None, 11))
    cursor.advance(TraceEvent("step_record", 3.0, None, 12))
    assert cursor.resume_counts() == {"step_record": 2,
                                      "switch_report": 1}
    assert set(cursor.to_dict()) == {"published", "counts"}
    clone = ReplayCursor.from_dict(cursor.to_dict())
    assert clone == cursor
    # a pre-counts checkpoint document still loads (counts default {})
    legacy = dict(cursor.to_dict())
    legacy.pop("counts")
    assert ReplayCursor.from_dict(legacy).counts == {}
    # and so does one that carries the JSONL byte offsets of old
    dated = dict(cursor.to_dict(),
                 positions={"step_record": [300, 13]})
    assert ReplayCursor.from_dict(dated) == cursor


def test_columnar_events_advance_counts_not_positions(trace_path,
                                                      tmp_path):
    columnar = write_columnar(trace_path, tmp_path / "run.vcol")
    cursor = ReplayCursor()
    for event in itertools.islice(trace_events(columnar), 5):
        cursor.advance(event)
    assert cursor.published == 5
    assert sum(cursor.resume_counts().values()) == 5


@pytest.mark.parametrize("resume_format", ["jsonl", "columnar"])
def test_cross_format_resume(trace_path, tmp_path, resume_format):
    """A checkpoint taken against one format resumes against the
    other: the cursor's per-kind record counts are the portable
    coordinate, and the diagnosis is bit-equal to an uninterrupted
    replay either way."""
    columnar = write_columnar(trace_path, tmp_path / "run.vcol")
    resume_path = trace_path if resume_format == "jsonl" else columnar
    header = read_header(trace_path)
    config = PipelineConfig(snapshot_every=16)

    baseline = LivePipeline.from_header(header, config)
    expected = TraceReplayer(
        baseline, trace_events(trace_path)).run()

    manager = CheckpointManager(
        tmp_path / f"ckpt-{resume_format}",
        CheckpointPolicy(interval_events=32))
    pipeline = LivePipeline.from_header(header, config)
    total = sum(1 for _ in trace_events(trace_path))
    stop_at = total // 2
    # the interrupted half replays from the OTHER format than the
    # resume, so the checkpoint itself crosses formats
    first_half_path = columnar if resume_format == "jsonl" \
        else trace_path
    partial = TraceReplayer(
        pipeline,
        itertools.islice(trace_events(first_half_path), stop_at),
        manager)
    partial.run(finish=False)
    partial.checkpoint()

    resumed, cursor, was_resumed = resume_or_create(header, manager,
                                                    config=config)
    assert was_resumed
    assert cursor.published == stop_at
    rest = trace_events(resume_path, cursor=cursor)
    final = TraceReplayer(resumed, rest, manager, cursor).run()
    assert final_json(final) == final_json(expected)
    assert cursor.published == total


# ----------------------------------------------------------------------
# two checkpoint documents, both 95 events into the golden incast trace
# under FIXTURE_CONFIG.  OLD_FIXTURE (checkpoint_incast_case0.json) was
# written before the waiting graph owned the per-step scalars and while
# the cursor still carried JSONL byte offsets (``cursor.positions``):
# it must still resume.  FIXTURE is what the pipeline writes today, and
# differs from it in nothing but that key and the checksum.
# ----------------------------------------------------------------------
OLD_FIXTURE = Path(__file__).parent.parent / "fixtures" \
    / "checkpoint_incast_case0.json"
FIXTURE = OLD_FIXTURE.with_name("checkpoint_incast_case0_counts.json")
FIXTURE_CUT = 95
FIXTURE_CONFIG = dict(snapshot_every=16, prune_interval=2, pump_batch=2,
                      lateness_bound_ns=5000.0)


@pytest.fixture(scope="module")
def golden_incast_path(tmp_path_factory):
    from repro.perf.golden import golden_anomaly

    tmp = tmp_path_factory.mktemp("golden")
    digests = json.loads(
        (FIXTURE.with_name("golden_digests.json")).read_text())
    assert golden_anomaly("incast", tmp)["trace_sha256"] \
        == digests["incast_case0"]["trace_sha256"]
    return tmp / "incast.jsonl"


def test_checkpoint_document_is_byte_identical_to_the_fixture(
        golden_incast_path, tmp_path):
    pipeline = LivePipeline.from_header(
        read_header(golden_incast_path), PipelineConfig(**FIXTURE_CONFIG))
    replayer = TraceReplayer(
        pipeline,
        itertools.islice(trace_events(golden_incast_path), FIXTURE_CUT),
        CheckpointManager(tmp_path))
    replayer.run(finish=False)
    counters = pipeline.counters()
    # the cut is worth pinning: pruned and retained records, steps
    # still expected, an event on the bus and one under the watermark
    assert counters["graph_pruned"] > 0 < counters["graph_retained"]
    assert counters["bus_depth"] > 0 < counters["watermark_buffered"]
    written = replayer.checkpoint()
    assert written.name == f"ckpt-{FIXTURE_CUT:010d}.json"
    assert written.read_bytes() == FIXTURE.read_bytes()


def test_fixtures_differ_only_in_cursor_positions_and_checksum():
    old = json.loads(OLD_FIXTURE.read_text())
    new = json.loads(FIXTURE.read_text())
    assert old.pop("checksum") != new.pop("checksum")
    assert old["state"]["cursor"].pop("positions") == {
        "step_record": [24155, 169], "switch_report": [139136, 212]}
    assert "positions" not in new["state"]["cursor"]
    assert old == new


@pytest.mark.parametrize("resume_format", ["jsonl", "columnar"])
def test_fixture_checkpoint_resumes_to_the_uninterrupted_verdict(
        golden_incast_path, tmp_path, resume_format):
    header = read_header(golden_incast_path)
    config = PipelineConfig(**FIXTURE_CONFIG)
    expected = TraceReplayer(
        LivePipeline.from_header(header, config),
        trace_events(golden_incast_path)).run()

    shutil.copy(OLD_FIXTURE,
                tmp_path / f"ckpt-{FIXTURE_CUT:010d}.json")
    manager = CheckpointManager(tmp_path)
    resumed, cursor, was_resumed = resume_or_create(header, manager,
                                                    config=config)
    assert was_resumed and cursor.published == FIXTURE_CUT
    resume_path = golden_incast_path if resume_format == "jsonl" \
        else write_columnar(golden_incast_path, tmp_path / "run.vcol")
    rest = trace_events(resume_path, cursor=cursor)
    final = TraceReplayer(resumed, rest, manager, cursor).run()
    assert final.canonical_json() == expected.canonical_json()
    assert final.counters["graph_pruned"] > 0


# ----------------------------------------------------------------------
# a file's bad lines are counted once, however often it is reopened
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def hostile_incast(golden_incast_path, tmp_path_factory):
    """The golden incast capture with a bad line after its third step
    record and another after its twentieth, as JSONL and as its
    lenient conversion."""
    lines = golden_incast_path.read_text().splitlines(keepends=True)
    steps = [i for i, line in enumerate(lines)
             if '"kind": "step_record"' in line]
    lines.insert(steps[19] + 1, "[1, 2]\n")
    lines.insert(steps[2] + 1, "{not json\n")
    tmp = tmp_path_factory.mktemp("hostile")
    jsonl = tmp / "incast.jsonl"
    jsonl.write_text("".join(lines))
    return {"jsonl": jsonl,
            "columnar": write_columnar(jsonl, tmp / "incast.vcol",
                                       on_error=lambda *_: None)}


def lenient_events(path, pipeline, cursor=None):
    return trace_events(path, on_error=pipeline.quarantine.admit,
                        cursor=cursor)


@pytest.mark.parametrize("fmt", ["jsonl", "columnar"])
@pytest.mark.parametrize("steps_before_cut", [2, 10, 30],
                         ids=["before", "between", "after"])
def test_resume_counts_quarantined_lines_once(
        hostile_incast, tmp_path, fmt, steps_before_cut):
    path = hostile_incast[fmt]
    header = read_header(path)
    config = PipelineConfig(snapshot_every=16)
    baseline = LivePipeline.from_header(header, config)
    expected = TraceReplayer(
        baseline, lenient_events(path, baseline)).run()
    assert expected.counters["quarantined"] == 2

    # cut where the stream has delivered that many step records: before
    # the first bad line's place in the file, between the two, after
    kinds = [e.kind for e in trace_events(path, lambda *_: None)]
    cut = [i for i, kind in enumerate(kinds, 1)
           if kind == "step_record"][steps_before_cut - 1]
    manager = CheckpointManager(tmp_path)
    pipeline = LivePipeline.from_header(header, config)
    partial = TraceReplayer(
        pipeline,
        itertools.islice(lenient_events(path, pipeline), cut), manager)
    partial.run(finish=False)
    partial.checkpoint()

    resumed, cursor, was_resumed = resume_or_create(header, manager,
                                                    config=config)
    assert was_resumed and cursor.published == cut
    final = TraceReplayer(
        resumed, lenient_events(path, resumed, cursor), manager,
        cursor).run()
    assert final.counters["quarantined"] == 2
    assert final_json(final) == final_json(expected)


# ----------------------------------------------------------------------
# hostile checkpoint documents: whatever the bytes, and whatever the
# state under a correct checksum, a resume restores a snapshot or
# starts cold — never an exception
# ----------------------------------------------------------------------
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12)
FIXTURE_STATE = json.loads(FIXTURE.read_text())["state"]
#: where a hostile value goes: at the root (the whole state), in place
#: of a field of the fixture state, or of a field of one of its objects
PLACES = st.one_of(
    st.just(()),
    st.tuples(st.sampled_from(sorted(FIXTURE_STATE))),
    st.sampled_from(sorted(
        key for key, value in FIXTURE_STATE.items()
        if isinstance(value, dict) and value)).flatmap(
        lambda key: st.tuples(st.just(key),
                              st.sampled_from(sorted(FIXTURE_STATE[key])))))
#: any JSON value, or ``...``: the field is missing
VALUES = st.just(...) | JSON


def planted(document, place: tuple, value):
    """``document`` with ``value`` at the key path ``place`` (the key
    dropped for ``...``).  Examples carry the place and value, not the
    ~100 kB state, so a failure report stays small."""
    if not place:
        return {} if value is ... else value
    key, *rest = place
    planted_document = dict(document)
    if value is ... and not rest:
        del planted_document[key]
    else:
        planted_document[key] = planted(document[key], tuple(rest), value)
    return planted_document


def checksummed(state) -> str:
    """A document the manager's validation accepts, whatever ``state``
    holds."""
    payload = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return json.dumps({
        "checksum": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "state": state, "version": CHECKPOINT_VERSION})


def resume_from(header, newest, older_good: bool):
    """resume_or_create over a directory whose newest snapshot holds
    ``newest`` (text or bytes), above the fixture snapshot if
    ``older_good``; returns its answer and the manager."""
    with tempfile.TemporaryDirectory() as directory:
        if older_good:
            shutil.copy(FIXTURE, Path(directory)
                        / f"ckpt-{FIXTURE_CUT:010d}.json")
        target = Path(directory) / f"ckpt-{FIXTURE_CUT + 1:010d}.json"
        if isinstance(newest, bytes):
            target.write_bytes(newest)
        else:
            target.write_text(newest)
        manager = CheckpointManager(directory)
        return resume_or_create(
            header, manager, config=PipelineConfig(**FIXTURE_CONFIG)), \
            manager


def assert_resumed_or_cold(answer, manager, older_good: bool) -> None:
    _pipeline, cursor, resumed = answer
    if manager.corrupt_skipped == 0:
        assert resumed                  # the newest restored as it is
    elif older_good:
        assert resumed and cursor.published == FIXTURE_CUT
        assert manager.fallbacks == 1
    else:
        assert not resumed and cursor.published == 0


@pytest.fixture(scope="module")
def incast_header(golden_incast_path):
    return read_header(golden_incast_path)


@pytest.mark.parametrize("older_good", [False, True],
                         ids=["cold", "fallback"])
@pytest.mark.parametrize("state", [
    {}, {"cursor": {"published": 3}}, {"cursor": []},
    {"kernel": 1, "cursor": {}}], ids=repr)
def test_a_state_of_the_wrong_shape_counts_as_corrupt(
        incast_header, state, older_good):
    answer, manager = resume_from(incast_header, checksummed(state),
                                  older_good)
    assert manager.corrupt_skipped == 1
    assert_resumed_or_cold(answer, manager, older_good)


def without_duration(node: str, step: int) -> dict:
    return dict(FIXTURE_STATE, durations=[
        entry for entry in FIXTURE_STATE["durations"]
        if entry[:2] != [node, step]])


#: well-shaped states whose fields disagree: each restored once, then
#: raised mid-replay (a KeyError in ``finish()``) or diagnosed without
#: a step.  In the fixture, ("h0", 0) is retained and not a slowest,
#: ("h10", 6) is step 6's slowest and already pruned.
INCONSISTENT = {
    "retained-record-without-duration": without_duration("h0", 0),
    "slowest-without-duration": without_duration("h10", 6),
    "duration-without-window": dict(FIXTURE_STATE, windows={
        step: window for step, window in FIXTURE_STATE["windows"].items()
        if step != "6"}),
}


@pytest.mark.parametrize("state", INCONSISTENT.values(),
                         ids=INCONSISTENT.keys())
def test_an_inconsistent_state_starts_cold_to_the_same_verdict(
        golden_incast_path, tmp_path, state):
    header = read_header(golden_incast_path)
    config = PipelineConfig(**FIXTURE_CONFIG)
    expected = TraceReplayer(
        LivePipeline.from_header(header, config),
        trace_events(golden_incast_path)).run()

    (tmp_path / f"ckpt-{FIXTURE_CUT:010d}.json").write_text(
        checksummed(state))
    manager = CheckpointManager(tmp_path)
    pipeline, cursor, resumed = resume_or_create(header, manager,
                                                 config=config)
    assert not resumed and cursor.published == 0
    assert manager.corrupt_skipped == 1
    final = TraceReplayer(pipeline, trace_events(golden_incast_path),
                          manager, cursor).run()
    assert final.canonical_json() == expected.canonical_json()


@settings(max_examples=200, deadline=None, derandomize=True,
          report_multiple_bugs=False)
@given(place=PLACES, value=VALUES, older_good=st.booleans())
def test_any_checksummed_state_resumes_or_starts_cold(
        incast_header, place, value, older_good):
    state = planted(FIXTURE_STATE, place, value)
    answer, manager = resume_from(incast_header, checksummed(state),
                                  older_good)
    assert_resumed_or_cold(answer, manager, older_good)


@settings(max_examples=100, deadline=None, derandomize=True,
          report_multiple_bugs=False)
@given(data=st.binary(max_size=64), older_good=st.booleans())
def test_any_bytes_resume_or_start_cold(incast_header, data, older_good):
    answer, manager = resume_from(incast_header, data, older_good)
    assert manager.corrupt_skipped == 1
    assert_resumed_or_cold(answer, manager, older_good)
