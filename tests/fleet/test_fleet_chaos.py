"""Fleet recovery under real SIGKILL: worker plumbing, the kill rule
and the chaos contract (resume ≡ uninterrupted, survivors untouched)."""

import json
import signal
from dataclasses import replace
from pathlib import Path

import pytest

from repro.chaos import (
    FleetChaosPlan,
    default_restart_policy,
    run_fleet_chaos,
    transport_failpoints,
)
from repro.fleet.aggregator import ShardReport, TenantDigest
from repro.fleet.service import FleetConfig, build_shard_runtime
from repro.fleet.sharding import TenantSpec, replicate_tenants
from repro.fleet.tenancy import TenantPolicy
from repro.fleet.worker import (make_shard_spec, read_report,
                                run_worker_process, write_report)
from tests.fleet.conftest import ELEPHANT, MICE


def test_report_file_round_trips(tmp_path):
    digest = TenantDigest(
        shard_id=1, tenant="t", final=True, seq=3,
        watermark_ns=123.0, step_records=9, switch_reports=8,
        confidence=0.9, degraded=False, findings=("echo",),
        top_contributor="h0->h4", top_score=0.5,
        events_admitted=100, events_shed=0,
        budget_exhausted=False, snapshot_digest="f" * 64)
    report = ShardReport(shard_id=1, final=True, tenants=[digest],
                         events_consumed=100)
    path = str(tmp_path / "reports" / "shard-001.json")
    write_report(path, report)
    restored = read_report(path)
    assert restored is not None
    assert restored.final
    assert restored.tenants == [digest]


def test_read_report_survives_garbage(tmp_path):
    assert read_report(str(tmp_path / "missing.json")) is None
    torn = tmp_path / "torn.json"
    torn.write_text('{"shard": 0, "final": tru')
    assert read_report(str(torn)) is None
    wrong_shape = tmp_path / "wrong.json"
    wrong_shape.write_text(json.dumps({"shard": 0}))
    assert read_report(str(wrong_shape)) is None


def one_shard_spec(trace_path, tmp_path, **kwargs) -> dict:
    tenants = replicate_tenants([str(trace_path)], replicate=1)
    config = FleetConfig(shards=1, policy=TenantPolicy(),
                         batch_events=64)
    return make_shard_spec(config, 0, tenants,
                           str(tmp_path / "shard-000.json"), **kwargs)


def test_a_worker_kills_itself_once_at_its_kill_point(trace_path,
                                                      tmp_path):
    """The fleet half of the kill rule: the first attempt SIGKILLs
    itself at ``kill_at``, unfinalized, and leaves its flag; the flag
    lets the next attempt on the same spec run through."""
    spec = one_shard_spec(trace_path, tmp_path, kill_at=1)
    assert run_worker_process(spec) == -9
    assert int(Path(spec["kill_flag"]).read_text()) >= 1
    report = read_report(spec["report_path"])
    assert report is None or not report.final
    assert run_worker_process(spec) == 0
    report = read_report(spec["report_path"])
    assert report is not None and report.final


def srpt_shard_specs(corpus) -> list[TenantSpec]:
    """The corpus's elephant behind six mice: under shortest remaining
    stream first, rounds end inside mice before the elephant starts."""
    labels = [ELEPHANT] + [MICE[index % len(MICE)] for index in range(6)]
    return [TenantSpec(tenant=f"tenant-{index}", trace=corpus[label][0])
            for index, label in enumerate(labels)]


def in_flight(runtime) -> list:
    return [t for t in runtime.tenants
            if not t.done and t.replayer.published > 0]


def kill_points(specs, config) -> dict[str, int]:
    """Where a worker's kill rule can land inside a mouse's stream and
    inside the elephant's, read off a dry run of the shard's schedule:
    the first round end with that tenant in flight (the worker checks
    its ``kill_at`` at round ends)."""
    runtime = build_shard_runtime(0, specs, config.policy)
    points: dict[str, int] = {}
    while not runtime.done:
        runtime.step(config.batch_events)
        for tenant in in_flight(runtime):
            kind = "elephant" if tenant.tenant == "tenant-0" else "mouse"
            points.setdefault(kind, runtime.events_consumed)
    return points


@pytest.mark.parametrize("victim", ["mouse", "elephant"])
def test_a_kill_inside_a_stream_resumes_by_restored_cursors(
        corpus, tmp_path, victim):
    """Shortest-stream-first under the kill rule: a worker killed while
    a mouse (or the elephant) is in flight restarts with every tenant
    at its restored cursor — the ended ones at their stream's end, the
    victim mid-stream and first of what has work left — and its final
    report equals an uninterrupted shard's."""
    specs = srpt_shard_specs(corpus)
    config = FleetConfig(shards=1, batch_events=64, policy=TenantPolicy(
        snapshot_every=32, checkpoint_every=16))
    kill_at = kill_points(specs, config)[victim]
    uninterrupted = build_shard_runtime(0, specs, config.policy)
    while not uninterrupted.done:
        uninterrupted.step(config.batch_events)
    uninterrupted.finalize()
    expected = [t.to_dict()
                for t in uninterrupted.report(final=True).tenants]

    spec = make_shard_spec(replace(config, workdir=str(tmp_path / "state")),
                           0, specs, str(tmp_path / "shard-000.json"),
                           kill_at=kill_at)
    assert run_worker_process(spec) == -9
    assert int(Path(spec["kill_flag"]).read_text()) == kill_at

    restarted = build_shard_runtime(0, specs, config.policy,
                                    spec["workdir"])
    assert restarted.resumed
    started = [t for t in restarted.tenants
               if t.replayer.published > 0]
    ended = [t for t in started if t.remaining == 0]
    victims = [t for t in started if t.remaining > 0]
    assert ended and len(victims) == 1
    (resumed,) = victims
    assert (resumed.tenant == "tenant-0") == (victim == "elephant")
    assert all(resumed.remaining < t.remaining
               for t in restarted.tenants if t not in started)
    # one round of the restart: the ended tenants see their end, then
    # the victim runs on; a longer stream starts only once it has ended
    restored = resumed.replayer.published
    restarted.step(config.batch_events)
    assert all(t.done for t in ended)
    assert resumed.replayer.published > restored
    assert len(in_flight(restarted)) <= 1
    assert resumed.done or in_flight(restarted) == [resumed]

    assert run_worker_process(spec) == 0
    report = read_report(spec["report_path"])
    assert report is not None and report.final
    assert [t.to_dict() for t in report.tenants] == expected


@pytest.mark.slow
def test_sigkilled_fleet_recovers_bit_equal(trace_path, tmp_path):
    """The tentpole contract, end to end with real OS processes:
    SIGKILL one shard worker mid-replay, corrupt one of its tenants'
    newest checkpoints, let supervision resume it — and the final
    fleet diagnosis is bit-equal to an uninterrupted in-process run,
    with the surviving shard's tenants untouched."""
    tenants = replicate_tenants([str(trace_path)], replicate=4)
    config = FleetConfig(
        shards=2,
        policy=TenantPolicy(snapshot_every=32, checkpoint_every=64),
        batch_events=64, merge_every_rounds=2)
    plan = FleetChaosPlan(seed=7, kills=1, kill_event_frac=0.5,
                          corrupt_checkpoint=True)
    report = run_fleet_chaos(tenants, tmp_path / "chaos", plan,
                             config=config,
                             restart_policy=default_restart_policy(7))
    counts = report.counts
    assert counts["kills_delivered"] == len(counts["victims"]) == 1
    assert counts["restarts"] >= 1
    assert counts["checkpoints_corrupted"] == 1
    assert report.equal, (
        f"diagnosis diverged: baseline={report.baseline_digest} "
        f"recovered={report.recovered_digest}")
    assert report.checks["survivors_clean"]
    assert report.passed
    # the report serializes for the CLI --json view
    as_dict = report.to_dict()
    assert as_dict["passed"] is True
    assert as_dict["victims"] == counts["victims"]
    assert "PASS" in report.summary_line()
    assert f"victims={counts['victims']}" in report.summary_line()


@pytest.mark.slow
def test_transport_chaos_goes_degraded_then_recovers_bit_equal(
        trace_path, tmp_path):
    """The transport tentpole, end to end: stream reports over the
    socket channel while seeded network faults drop/garble chunks,
    reset connections and stall heartbeats, AND SIGKILL one shard so
    it goes health-dead — the fleet publishes degraded snapshots
    instead of stalling, then recovers, and the final diagnosis is
    still bit-equal to the uninterrupted baseline."""
    tenants = replicate_tenants([str(trace_path)], replicate=4)
    config = FleetConfig(
        shards=2,
        policy=TenantPolicy(snapshot_every=32, checkpoint_every=64),
        batch_events=64, merge_every_rounds=2)
    plan = FleetChaosPlan(seed=7, kills=1, kill_event_frac=0.5,
                          transport=True, net_drop=0.05,
                          net_garble=0.05, net_resets=2,
                          stall_heartbeats=0.2)
    parent_faults, worker_faults = transport_failpoints(plan)
    assert "transport.recv.drop:drop@0.05" in parent_faults
    assert "transport.conn.reset:drop@0.2x2" in parent_faults
    assert worker_faults == "transport.heartbeat:drop@0.2"

    rolling = []
    report = run_fleet_chaos(tenants, tmp_path / "chaos", plan,
                             config=config, on_merge=rolling.append)
    counts = report.counts
    assert counts["kills_delivered"] == 1
    assert counts["restarts"] >= 1
    # the killed shard outlived dead_after_s: degraded window observed
    assert counts["degraded_snapshots"] >= 1
    assert any(s.degraded for s in rolling)
    # ... and the final snapshot recovered (every shard live again)
    assert report.checks["recovered"]
    assert not rolling[-1].degraded
    assert rolling[-1].final
    # degraded, never wrong: bit-equal despite every injected fault
    assert report.equal, (
        f"diagnosis diverged: baseline={report.baseline_digest} "
        f"recovered={report.recovered_digest}")
    assert report.checks["survivors_clean"]
    assert report.passed
    assert counts["transport_stats"].get("reports_received", 0) >= 1
    as_dict = report.to_dict()
    assert as_dict["transport"] is True
    assert as_dict["degraded_snapshots"] == counts["degraded_snapshots"]
    assert "degraded-snapshots=" in report.summary_line()
    assert "recovered=true" in report.summary_line()


@pytest.mark.slow
def test_poll_failure_does_not_orphan_the_worker(trace_path, tmp_path):
    """If the parent's wait dies while the child is alive (here: a
    ``join`` that raises once; in production: KeyboardInterrupt),
    run_worker_process must still reap the spawned child instead of
    leaving it running unsupervised.  The child could finish the small
    trace by itself, so the test demands the parent's SIGKILL: an
    unfinalized report and exit code -9, not a clean exit."""
    import multiprocessing

    spec = one_shard_spec(trace_path, tmp_path)
    spawned = []
    real_ctx = multiprocessing.get_context("spawn")

    class Interrupted(Exception):
        pass

    class JoinRaisesOnce:
        def __init__(self, process) -> None:
            self.process = process
            self.raised = False

        def __getattr__(self, name):
            return getattr(self.process, name)

        def join(self, *args):
            if not self.raised:
                self.raised = True
                raise Interrupted
            return self.process.join(*args)

    class RecordingContext:
        def Process(self, *args, **kwargs):
            process = real_ctx.Process(*args, **kwargs)
            spawned.append(process)
            return JoinRaisesOnce(process)

    with pytest.raises(Interrupted):
        run_worker_process(spec, ctx=RecordingContext())
    assert len(spawned) == 1
    child = spawned[0]
    child.join(timeout=10)
    assert not child.is_alive()
    assert child.exitcode == -signal.SIGKILL
    report = read_report(spec["report_path"])
    assert report is None or not report.final
