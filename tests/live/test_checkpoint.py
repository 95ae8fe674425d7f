"""Checkpoint subsystem: atomic writes, checksum validation, fallback,
retention, cursor round-trips, resume by prefix replay and its
equivalence with an uninterrupted run, and hostile checkpoint
documents."""

import dataclasses
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
    TraceReplayer,
    resume_or_create,
)
from repro.traces import (TraceRecorder, read_header, trace_events,
                          write_columnar)


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


def events_of(path, on_error=None):
    """The stream factory over a trace file: the whole stream, fresh
    per pipeline."""
    return lambda _pipeline: trace_events(path, on_error)


# ----------------------------------------------------------------------
# the cursor: TraceReplayer.published
# ----------------------------------------------------------------------
def test_cursor_ignores_synthetic_events(trace_path):
    event = next(iter(trace_events(trace_path)))
    synthetic = dataclasses.replace(event, line_no=0)
    pipeline = LivePipeline.from_header(read_header(trace_path))
    replayer = TraceReplayer(pipeline, [synthetic])
    assert replayer.step() == 1
    assert replayer.published == 1
    assert pipeline.state_dict(replayer.published)["cursor"] \
        == {"published": 1}


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


def test_a_cold_start_keeps_its_own_checkpoints(trace_path, tmp_path):
    """A fresh run in a directory an earlier run used writes lower
    numbers than the leftovers; retention keeps the highest, so each
    save used to be pruned as it was written, and a supervised restart
    resumed at the dead run's end.  The start discards what lies
    above it."""
    header = read_header(trace_path)
    policy = CheckpointPolicy(interval_events=32, retain=3)
    earlier, _ = resume_or_create(
        header, CheckpointManager(tmp_path, policy), events_of(trace_path))
    earlier.run()
    assert [p.name for p in earlier.manager.snapshot_paths()] == [
        "ckpt-0000000192.json", "ckpt-0000000224.json",
        "ckpt-0000000226.json"]

    manager = CheckpointManager(tmp_path, policy)
    fresh, resumed = resume_or_create(header, manager,
                                      events_of(trace_path), fresh=True)
    assert not resumed
    fresh.step(100)                   # killed at event 100
    assert [p.name for p in manager.snapshot_paths()] == [
        "ckpt-0000000032.json", "ckpt-0000000064.json",
        "ckpt-0000000096.json"]

    restarted, resumed = resume_or_create(header, manager,
                                          events_of(trace_path))
    assert resumed and restarted.published == 96


# ----------------------------------------------------------------------
# resume replays the prefix: equivalence with an uninterrupted run
# ----------------------------------------------------------------------
def test_pipeline_state_roundtrip_mid_stream(trace_path, tmp_path):
    header = read_header(trace_path)
    config = PipelineConfig(snapshot_every=16)
    events = list(trace_events(trace_path))
    expected = TraceReplayer(LivePipeline.from_header(header, config),
                             events).run()
    cut = len(events) // 2
    manager = CheckpointManager(tmp_path)
    first, _ = resume_or_create(header, manager, lambda _p: events,
                                config=config)
    first.step(cut)
    state = manager.load(first.checkpoint())
    assert state == first.pipeline.state_dict(cut)

    restored, resumed = resume_or_create(header, manager,
                                         lambda _p: events, config=config)
    assert resumed and restored.published == cut
    assert restored.pipeline.counters() == first.pipeline.counters()
    assert restored.pipeline.checkpoint_counters() \
        == first.pipeline.checkpoint_counters()
    assert final_json(restored.run()) == final_json(expected)


def test_replayer_checkpoints_and_resumes(trace_path, tmp_path):
    header = read_header(trace_path)
    config = PipelineConfig(snapshot_every=16)

    baseline = LivePipeline.from_header(header, config)
    expected = TraceReplayer(
        baseline, trace_events(trace_path)).run()

    manager = CheckpointManager(
        tmp_path, CheckpointPolicy(interval_events=32))
    total = sum(1 for _ in trace_events(trace_path))
    stop_at = total // 2

    partial, _ = resume_or_create(header, manager,
                                  events_of(trace_path), config=config)
    partial.step(stop_at)
    partial.checkpoint()

    resumed, was_resumed = resume_or_create(
        header, manager, events_of(trace_path), config=config)
    assert was_resumed
    assert resumed.published == stop_at
    final = resumed.run()
    assert final_json(final) == final_json(expected)
    assert manager.written >= 2


def test_resume_computes_nothing_it_will_not_use(trace_path, tmp_path,
                                                monkeypatch):
    """The prefix replay reads exactly the checkpointed events, takes
    no snapshot, and lands on the document's snapshot counters."""
    from repro.core.analyzer import DiagnosisKernel

    header = read_header(trace_path)
    config = PipelineConfig(snapshot_every=10)
    manager = CheckpointManager(tmp_path)
    partial, _ = resume_or_create(header, manager,
                                  events_of(trace_path), config=config)
    partial.step(155)
    state = manager.load(partial.checkpoint())
    assert state["snapshot_seq"] > 0 < state["since_snapshot"]

    snapshots = []
    real = DiagnosisKernel.snapshot
    monkeypatch.setattr(DiagnosisKernel, "snapshot",
                        lambda *a, **k: snapshots.append(1) or real(*a, **k))
    read = []

    def counted(_pipeline):
        for event in trace_events(trace_path):
            read.append(event)
            yield event

    resumed, was_resumed = resume_or_create(header, manager, counted,
                                            config=config)
    assert was_resumed and not snapshots
    assert len(read) == resumed.published == 155
    pipeline = resumed.pipeline
    assert pipeline._snapshot_seq == state["snapshot_seq"]
    assert pipeline._since_snapshot == state["since_snapshot"]
    assert not pipeline.snapshots


@pytest.fixture(scope="module")
def elephant_trace(tmp_path_factory):
    """The benchmark corpus's elephant: a 12-node incast capture whose
    643 events are mostly switch reports."""
    from tests.fleet.conftest import record_scenario_trace

    return record_scenario_trace(
        tmp_path_factory.mktemp("elephant") / "incast-n12.jsonl",
        "incast", 12)


def test_resume_keeps_step_windows_in_step_order(elephant_trace,
                                                 tmp_path):
    """Eq. 3 sums the per-step windows in the graph's order, which a
    resume must rebuild as the integer step order an uninterrupted
    replay builds them in (a 12-node ring has 11 steps) — once broken
    by a checkpoint document whose keys sorted step "10" before "2"."""
    trace = elephant_trace
    header = read_header(trace)
    config = PipelineConfig(snapshot_every=16)
    baseline = LivePipeline.from_header(header, config)
    expected = TraceReplayer(baseline, trace_events(trace)).run()
    assert len(baseline.graph.windows) >= 11
    assert list(baseline.graph.windows) \
        == sorted(baseline.graph.windows)

    manager = CheckpointManager(tmp_path / "ckpt")
    stop_at = sum(1 for _ in trace_events(trace)) - 2
    partial, _ = resume_or_create(header, manager, events_of(trace),
                                  config=config)
    partial.step(stop_at)
    partial.checkpoint()

    replayer, was_resumed = resume_or_create(
        header, manager, events_of(trace), config=config)
    resumed = replayer.pipeline
    assert was_resumed and replayer.published == stop_at
    final = replayer.run()
    assert list(resumed.graph.windows) == list(baseline.graph.windows)
    assert final.canonical_json() == expected.canonical_json()


#: a checkpoint is a cursor and five counters, the same few bytes at
#: any position; re-encoding the switch reports made the elephant's
#: 48-505 kB
MAX_CHECKPOINT_BYTES = 512


def test_checkpoints_follow_the_cadence_and_hold_only_the_state(
        elephant_trace, tmp_path):
    header = read_header(elephant_trace)
    events = list(trace_events(elephant_trace))
    plain = LivePipeline.from_header(header)
    TraceReplayer(plain, iter(events)).run()

    manager = CheckpointManager(tmp_path, CheckpointPolicy(
        interval_events=64, retain=len(events)))
    pipeline = LivePipeline.from_header(header)
    TraceReplayer(pipeline, iter(events), manager).run()
    assert pipeline.counters() == plain.counters()
    # ten full intervals of 64, then the final flush of the last 3
    assert len(events) == 643
    assert manager.written == len(manager.snapshot_paths()) == 11
    for path in manager.snapshot_paths():
        assert path.stat().st_size <= MAX_CHECKPOINT_BYTES, path.name


def test_resume_or_create_fresh_skips_checkpoints(trace_path,
                                                  tmp_path):
    header = read_header(trace_path)
    manager = CheckpointManager(tmp_path)
    pipeline = LivePipeline.from_header(header)
    TraceReplayer(pipeline, trace_events(trace_path), manager).run()
    assert manager.snapshot_paths()

    replayer, resumed = resume_or_create(header, manager,
                                         events_of(trace_path),
                                         fresh=True)
    assert not resumed
    assert replayer.published == 0


# ----------------------------------------------------------------------
# cross-format resume (the cursor counts events of the merged stream)
# ----------------------------------------------------------------------
def test_cursor_counts_round_trip(trace_path, tmp_path):
    pipeline = LivePipeline.from_header(read_header(trace_path))
    state = pipeline.state_dict(3)
    assert state["cursor"] == {"published": 3}
    manager = CheckpointManager(tmp_path)
    assert manager.save(state).name == "ckpt-0000000003.json"
    # a document of an older writer carries per-kind counts and the
    # JSONL byte offsets of old: ignored
    dated = dict(state, cursor=dict(state["cursor"],
                                    counts={"step_record": 2},
                                    positions={"step_record": [300, 13]}))
    assert manager.save(dated).name == "ckpt-0000000003.json"


def test_columnar_events_advance_counts_not_positions(trace_path,
                                                      tmp_path):
    columnar = write_columnar(trace_path, tmp_path / "run.vcol")
    pipeline = LivePipeline.from_header(read_header(columnar))
    replayer = TraceReplayer(pipeline, trace_events(columnar))
    assert replayer.step(5) == 5
    assert pipeline.state_dict(replayer.published)["cursor"] \
        == {"published": 5}


@pytest.mark.parametrize("resume_format", ["jsonl", "columnar"])
def test_cross_format_resume(trace_path, tmp_path, resume_format):
    """A checkpoint taken against one format resumes against the
    other: the merged stream is the same in both, so its event count
    is the portable coordinate, and the diagnosis is bit-equal to an
    uninterrupted replay either way."""
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
    total = sum(1 for _ in trace_events(trace_path))
    stop_at = total // 2
    # the interrupted half replays from the OTHER format than the
    # resume, so the checkpoint itself crosses formats
    first_half_path = columnar if resume_format == "jsonl" \
        else trace_path
    partial, _ = resume_or_create(header, manager,
                                  events_of(first_half_path),
                                  config=config)
    partial.step(stop_at)
    partial.checkpoint()

    resumed, was_resumed = resume_or_create(
        header, manager, events_of(resume_path), config=config)
    assert was_resumed
    assert resumed.published == stop_at
    final = resumed.run()
    assert final_json(final) == final_json(expected)
    assert resumed.published == total


# ----------------------------------------------------------------------
# two checkpoint documents, both 95 events into the golden incast trace
# under FIXTURE_CONFIG.  OLD_FIXTURE (checkpoint_incast_case0.json) was
# written when a checkpoint held the whole pipeline state and the
# cursor carried JSONL byte offsets (``cursor.positions``): it must
# still resume, its extra keys ignored.  FIXTURE is what the pipeline
# writes today: the cursor and five counters.
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


def test_the_fixture_is_the_old_state_restricted_to_the_kept_keys():
    old = json.loads(OLD_FIXTURE.read_text())["state"]
    new = json.loads(FIXTURE.read_text())["state"]
    assert set(new) == {"cursor", "seq", "ingested", "since_snapshot",
                        "snapshot_seq", "dupes"}
    assert new == {**{key: old[key] for key in new},
                   "cursor": {"published": old["cursor"]["published"]}}


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
    resume_path = golden_incast_path if resume_format == "jsonl" \
        else write_columnar(golden_incast_path, tmp_path / "run.vcol")
    resumed, was_resumed = resume_or_create(
        header, manager, events_of(resume_path), config=config)
    assert was_resumed and resumed.published == FIXTURE_CUT
    final = resumed.run()
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


def lenient_events(path):
    return lambda pipeline: trace_events(
        path, on_error=pipeline.quarantine.admit)


@pytest.mark.parametrize("fmt", ["jsonl", "columnar"])
@pytest.mark.parametrize("steps_before_cut", [2, 10, 30],
                         ids=["before", "between", "after"])
def test_resume_counts_quarantined_lines_once(
        hostile_incast, tmp_path, fmt, steps_before_cut):
    path = hostile_incast[fmt]
    header = read_header(path)
    config = PipelineConfig(snapshot_every=16)
    baseline, _ = resume_or_create(header, None, lenient_events(path),
                                   config=config)
    expected = baseline.run()
    assert expected.counters["quarantined"] == 2

    # cut where the stream has delivered that many step records: before
    # the first bad line's place in the file, between the two, after
    kinds = [e.kind for e in trace_events(path, lambda *_: None)]
    cut = [i for i, kind in enumerate(kinds, 1)
           if kind == "step_record"][steps_before_cut - 1]
    manager = CheckpointManager(tmp_path)
    partial, _ = resume_or_create(header, manager, lenient_events(path),
                                  config=config)
    partial.step(cut)
    partial.checkpoint()

    resumed, was_resumed = resume_or_create(
        header, manager, lenient_events(path), config=config)
    assert was_resumed and resumed.published == cut
    final = resumed.run()
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
    whole state, so a failure report stays small."""
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


def resume_from(incast, newest, older_good: bool):
    """resume_or_create over a directory whose newest snapshot holds
    ``newest`` (text or bytes), above the fixture snapshot if
    ``older_good``; returns its answer and the manager."""
    header, events = incast
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
            header, manager, lambda _pipeline: events,
            config=PipelineConfig(**FIXTURE_CONFIG)), manager


def assert_resumed_or_cold(answer, manager, older_good: bool) -> None:
    replayer, resumed = answer
    if manager.corrupt_skipped == 0:
        assert resumed                  # the newest restored as it is
    elif older_good:
        assert resumed and replayer.published == FIXTURE_CUT
        assert manager.fallbacks == 1
    else:
        assert not resumed and replayer.published == 0


@pytest.fixture(scope="module")
def incast(golden_incast_path):
    return (read_header(golden_incast_path),
            list(trace_events(golden_incast_path)))


@pytest.mark.parametrize("older_good", [False, True],
                         ids=["cold", "fallback"])
@pytest.mark.parametrize("state", [
    {}, {"cursor": {"published": 3}}, {"cursor": []},
    {"kernel": 1, "cursor": {}}], ids=repr)
def test_a_state_of_the_wrong_shape_counts_as_corrupt(
        incast, state, older_good):
    answer, manager = resume_from(incast, checksummed(state),
                                  older_good)
    assert manager.corrupt_skipped == 1
    assert_resumed_or_cold(answer, manager, older_good)


def off_by_one(key: str) -> dict:
    value = FIXTURE_STATE[key]
    if isinstance(value, dict):
        return dict(FIXTURE_STATE, **{key: dict(
            value, step_record=value["step_record"] + 1)})
    return dict(FIXTURE_STATE, **{key: value + 1})


#: well-shaped documents the stream does not reproduce: each of the
#: five counters off by one, and a cursor past the stream's end
INCONSISTENT = {
    **{f"{key}-off-by-one": off_by_one(key) for key in (
        "seq", "ingested", "since_snapshot", "snapshot_seq", "dupes")},
    "cursor-past-the-end": dict(FIXTURE_STATE,
                                cursor={"published": 10 ** 6}),
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
    replayer, resumed = resume_or_create(
        header, manager, events_of(golden_incast_path), config=config)
    assert not resumed and replayer.published == 0
    assert manager.corrupt_skipped == 1
    final = replayer.run()
    assert final.canonical_json() == expected.canonical_json()


def test_a_checkpoint_of_another_trace_starts_cold(trace_path,
                                                    tmp_path):
    """A flow_contention checkpoint in the directory a pfc_storm trace
    is then served from: the prefix replay does not reproduce it, so
    the pfc_storm verdict comes out as if served alone.  (Skipping
    into the new trace by the old cursor served a wrong verdict.)"""
    from tests.fleet.conftest import record_scenario_trace

    storm = record_scenario_trace(tmp_path / "storm.jsonl", "pfc_storm")
    config = PipelineConfig(snapshot_every=16)
    manager = CheckpointManager(tmp_path / "ckpt")
    contention, _ = resume_or_create(read_header(trace_path), manager,
                                     events_of(trace_path), config=config)
    contention.step(150)
    contention.checkpoint()

    header = read_header(storm)
    expected = TraceReplayer(LivePipeline.from_header(header, config),
                             trace_events(storm)).run()
    replayer, resumed = resume_or_create(header, manager,
                                         events_of(storm), config=config)
    assert not resumed and manager.corrupt_skipped == 1
    final = replayer.run()
    assert final.canonical_json() == expected.canonical_json()
    assert {f["type"] for f in final.to_dict()["findings"]} \
        == {"pfc_storm"}


def test_a_fault_in_the_prefix_replay_keeps_the_checkpoint(
        golden_incast_path, tmp_path):
    """An exception the replay itself raises is a fault of the code,
    not of the document: it propagates, and the checkpoint is neither
    counted corrupt nor discarded."""
    def faulty(pipeline):
        events = trace_events(golden_incast_path)
        yield from itertools.islice(events, FIXTURE_CUT // 2)
        raise ValueError("a fault in the pipeline")

    path = tmp_path / f"ckpt-{FIXTURE_CUT:010d}.json"
    path.write_text(checksummed(FIXTURE_STATE))
    manager = CheckpointManager(tmp_path)
    with pytest.raises(ValueError, match="a fault in the pipeline"):
        resume_or_create(read_header(golden_incast_path), manager,
                         faulty, config=PipelineConfig(**FIXTURE_CONFIG))
    assert manager.corrupt_skipped == 0
    assert manager.snapshot_paths() == [path]


@settings(max_examples=200, deadline=None, derandomize=True,
          report_multiple_bugs=False)
@given(place=PLACES, value=VALUES, older_good=st.booleans())
def test_any_checksummed_state_resumes_or_starts_cold(
        incast, place, value, older_good):
    state = planted(FIXTURE_STATE, place, value)
    answer, manager = resume_from(incast, checksummed(state),
                                  older_good)
    assert_resumed_or_cold(answer, manager, older_good)


@settings(max_examples=100, deadline=None, derandomize=True,
          report_multiple_bugs=False)
@given(data=st.binary(max_size=64), older_good=st.booleans())
def test_any_bytes_resume_or_start_cold(incast, data, older_good):
    answer, manager = resume_from(incast, data, older_good)
    assert manager.corrupt_skipped == 1
    assert_resumed_or_cold(answer, manager, older_good)
