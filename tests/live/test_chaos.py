"""The recovery contract, executed: seeded kills, checkpoint damage,
perturbation determinism, and mid-record truncation probing."""

import json

import pytest

from repro.chaos import (
    ChaosPlan,
    derive_kill_points,
    perturbed_events,
    probe_trace_truncation,
    run_chaos,
)
from repro.live.checkpoint import CheckpointManager, CheckpointPolicy
from repro.live.pipeline import PipelineConfig
from repro.traces import trace_events

from tests.live.test_checkpoint import record_scenario_trace


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return record_scenario_trace(
        tmp_path_factory.mktemp("chaos") / "run.jsonl")


CONFIG = PipelineConfig(snapshot_every=32)
POLICY = CheckpointPolicy(interval_events=24)


def test_recovery_contract_five_kill_points(trace_path, tmp_path):
    """The acceptance criterion: >=5 seeded kill points, final
    snapshot bit-equal to the uninterrupted run."""
    plan = ChaosPlan(
        seed=11,
        kill_points=derive_kill_points(trace_path, 11, 5))
    assert len(plan.kill_points) == 5
    report = run_chaos(trace_path, tmp_path, plan,
                       config=CONFIG, policy=POLICY)
    assert report.counts["kills_survived"] == 5
    assert report.equal, (report.baseline_digest,
                          report.recovered_digest)
    assert report.passed
    assert report.counts["checkpoints_written"] >= 2
    assert report.baseline_digest == report.recovered_digest


def test_corrupted_latest_snapshot_converges(trace_path, tmp_path):
    """Damaging the newest checkpoint before every resume still
    converges — the loader falls back to an older good snapshot (or a
    cold start) and the contract holds."""
    plan = ChaosPlan(
        seed=3,
        kill_points=derive_kill_points(trace_path, 3, 3),
        corrupt_checkpoint=True)
    report = run_chaos(trace_path, tmp_path, plan,
                       config=CONFIG, policy=POLICY)
    counts = report.counts
    assert report.equal
    assert counts["checkpoints_corrupted"] >= 1
    assert counts["corrupt_skipped"] >= 1
    assert counts["fallbacks"] + counts["resumes_from_scratch"] >= 1


def test_truncated_checkpoint_converges(trace_path, tmp_path):
    plan = ChaosPlan(
        seed=5,
        kill_points=derive_kill_points(trace_path, 5, 2),
        truncate_checkpoint=True)
    report = run_chaos(trace_path, tmp_path, plan,
                       config=CONFIG, policy=POLICY)
    assert report.equal


def test_contract_under_duplicates_and_reordering(trace_path,
                                                  tmp_path):
    plan = ChaosPlan(
        seed=21,
        kill_points=derive_kill_points(trace_path, 21, 3,
                                       duplicate_every=7),
        duplicate_every=7,
        reorder_window=5)
    report = run_chaos(trace_path, tmp_path, plan,
                       config=CONFIG, policy=POLICY)
    assert report.counts["kills_survived"] == 3
    # the kill rule: each victim stopped at exactly its planned
    # consumed-event count, in plan order
    assert [entry["kill_at"] for entry in report.counts["kill_log"]] \
        == list(plan.kill_points)
    assert report.equal


def test_no_kills_still_passes(trace_path, tmp_path):
    report = run_chaos(trace_path, tmp_path, ChaosPlan(seed=1),
                       config=CONFIG, policy=POLICY)
    assert report.equal
    assert report.counts["kills_survived"] == 0
    assert report.counts["resumes"] == 0


def test_report_json_roundtrips(trace_path, tmp_path):
    plan = ChaosPlan(seed=9, kill_points=(10,))
    report = run_chaos(trace_path, tmp_path, plan,
                       config=CONFIG, policy=POLICY)
    data = json.loads(json.dumps(report.to_dict()))
    assert data["passed"] is True
    assert data["kill_points"] == [10]
    assert data["corrupt_checkpoint"] is False
    assert data["kill_log"][0]["kill_at"] == 10
    assert "PASS" in report.summary_line()
    assert "bit-equal=true" in report.summary_line()
    assert "kills-survived=1/1" in report.summary_line()


def test_a_resume_past_a_kill_point_still_kills(trace_path, tmp_path):
    """A reused workdir whose checkpoint is already past the first kill
    point: that kill lands on the first event after the resume instead
    of being skipped, and the later one at its exact count."""
    from repro.live.checkpoint import TraceReplayer
    from repro.live.pipeline import LivePipeline
    from repro.traces import read_header

    plan = ChaosPlan(seed=4, kill_points=(10, 60))
    manager = CheckpointManager(tmp_path / "checkpoints", POLICY)
    seeded = TraceReplayer(
        LivePipeline.from_header(read_header(trace_path), config=CONFIG),
        perturbed_events(trace_path, plan), manager)
    seeded.step(40)
    seeded.checkpoint()

    report = run_chaos(trace_path, tmp_path, plan,
                       config=CONFIG, policy=POLICY)
    assert [entry["kill_at"] for entry in report.counts["kill_log"]] \
        == [41, 60]
    assert report.equal
    assert "kills-survived=2/2" in report.summary_line()


# ----------------------------------------------------------------------
# perturbation determinism
# ----------------------------------------------------------------------
def identity(events):
    return [(e.kind, e.time, e.line_no) for e in events]


def test_perturbed_stream_is_seed_deterministic(trace_path):
    plan = ChaosPlan(seed=77, duplicate_every=5, reorder_window=6)
    first = identity(perturbed_events(trace_path, plan))
    second = identity(perturbed_events(trace_path, plan))
    assert first == second
    other = identity(perturbed_events(
        trace_path, ChaosPlan(seed=78, duplicate_every=5,
                              reorder_window=6)))
    assert other != first


def test_duplicate_every_adds_events(trace_path):
    base = identity(perturbed_events(trace_path, ChaosPlan()))
    doubled = identity(perturbed_events(
        trace_path, ChaosPlan(duplicate_every=4)))
    assert len(doubled) == len(base) + len(base) // 4


def test_reordering_preserves_multiset(trace_path):
    base = identity(perturbed_events(trace_path, ChaosPlan()))
    shuffled = identity(perturbed_events(
        trace_path, ChaosPlan(seed=2, reorder_window=8)))
    assert sorted(base) == sorted(shuffled)
    assert base != shuffled


def test_derive_kill_points_deterministic(trace_path):
    first = derive_kill_points(trace_path, 42, 4)
    assert first == derive_kill_points(trace_path, 42, 4)
    assert derive_kill_points(trace_path, 43, 4) != first
    assert list(first) == sorted(first)
    assert all(k >= 1 for k in first)


# ----------------------------------------------------------------------
# checkpoint damage helper + truncation probe
# ----------------------------------------------------------------------
def test_corrupt_newest_checkpoint_no_snapshots(tmp_path):
    import random

    manager = CheckpointManager(tmp_path)
    plan = ChaosPlan(corrupt_checkpoint=True)
    assert plan.damage_newest(manager, random.Random(0)) is None


def test_probe_trace_truncation(trace_path, tmp_path):
    probe = probe_trace_truncation(trace_path, tmp_path)
    assert probe["detected"]
    assert probe["offset_correct"]
    assert probe["resumed_ok"]
    total = sum(1 for _ in trace_events(trace_path))
    assert probe["events_before_cut"] + probe["events_after_resume"] \
        == total
    assert probe["events_after_resume"] > 0
    assert probe["resume_offset"] < probe["cut_at"]
