"""A tenant's final verdict is taken at stream end and held.

``TenantRuntime.step`` used to park an exhausted tenant — fold state
dropped — until its shard ended, where ``finalize`` refolded every
report from scratch.  Now the call that finds the stream at its end
writes the final checkpoint, drains and takes one more *incremental*
snapshot, and ``finalize`` only hands it out.  What a tenant
*publishes* must not move: until ``finalize`` a rolling report answers
what the parent commit's answered, byte for byte.  The parent's order
is kept below (:class:`DeferredTenant`) as the reference.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.core import provenance
from repro.fleet.aggregator import TenantDigest
from repro.fleet.service import (FleetConfig, FleetService,
                                 ShardRuntime)
from repro.fleet.sharding import TenantSpec
from repro.fleet.tenancy import TenantPolicy, TenantRuntime
from repro.fleet.worker import make_shard_spec, read_report, worker_main
from tests.core.test_kernel_property import everything
from tests.fleet.conftest import LABELS

BATCH = 64


class DeferredTenant(TenantRuntime):
    """The parent commit's tenant, verbatim: parked at stream end with
    its fold state dropped, refolded when the shard finalizes."""

    def step(self, max_events: int) -> int:
        if self.done:
            return 0
        consumed = self.replayer.step(max_events)
        if self.replayer.exhausted:
            self.pipeline.kernel.drop_derived()
        return consumed

    def finalize(self):
        if self.final is None:
            self.final = self.replayer.finalize()
        return self.final


def policy_for(events: int, budget: bool, checkpoints: bool
               ) -> TenantPolicy:
    return TenantPolicy(event_budget=events // 2 if budget else 0,
                        snapshot_every=16,
                        checkpoint_every=16 if checkpoints else 0)


def run_to_done(tenant: TenantRuntime, batch: int = BATCH):
    while not tenant.done:
        tenant.step(batch)
    return tenant


def facts(tenant: TenantRuntime) -> dict:
    """Everything a final report says about a tenant."""
    final = tenant.finalize()
    digest = TenantDigest.from_snapshot(
        0, tenant.tenant, final, tenant.events_admitted,
        tenant.events_shed, tenant.budget_exhausted)
    return {"digest": digest.to_dict(),
            "snapshot": everything(final),
            "seq": final.seq, "counters": final.counters,
            "checkpoints": tenant.manager.written
            if tenant.manager is not None else 0}


# ----------------------------------------------------------------------
# (a) step ... finalize == the parent's deferred finalize; resume
# ----------------------------------------------------------------------
@pytest.mark.parametrize("checkpoints", [False, True],
                         ids=["stateless", "checkpointed"])
@pytest.mark.parametrize("budget", [False, True],
                         ids=["unbudgeted", "budgeted"])
@pytest.mark.parametrize("label", LABELS)
def test_held_final_equals_the_deferred_one(corpus, tmp_path, label,
                                            budget, checkpoints):
    trace, events = corpus[label]
    policy = policy_for(events, budget, checkpoints)

    def tenant(cls, name):
        return cls("t", 0, policy, trace=trace,
                   checkpoint_dir=str(tmp_path / name)
                   if checkpoints else None)

    expected = facts(run_to_done(tenant(DeferredTenant, "deferred")))
    held = run_to_done(tenant(TenantRuntime, "held"))
    assert held.final is None            # taken, not yet published
    assert facts(held) == expected
    assert held.finalize() is held.final is held.latest_snapshot()
    assert expected["digest"]["final"]
    assert expected["digest"]["events_shed"] == \
        (events - events // 2 if budget else 0)
    assert (expected["checkpoints"] > 0) == checkpoints


@pytest.mark.parametrize("budget", [False, True],
                         ids=["unbudgeted", "budgeted"])
@pytest.mark.parametrize("label", LABELS)
def test_killed_between_stream_end_and_shard_end(corpus, tmp_path,
                                                 label, budget):
    """The process dies while a tenant is held: the final checkpoint
    it wrote at stream end is pre-drain, so the restart drains again
    and ends where an uninterrupted tenant ends."""
    trace, events = corpus[label]
    policy = policy_for(events, budget, checkpoints=True)
    expected = facts(run_to_done(TenantRuntime(
        "t", 0, policy, trace=trace,
        checkpoint_dir=str(tmp_path / "uninterrupted"))))

    ckpt = str(tmp_path / "killed")
    first = run_to_done(TenantRuntime("t", 0, policy, trace=trace,
                                      checkpoint_dir=ckpt))
    assert first.final is None           # never finalized: "SIGKILL"
    second = TenantRuntime("t", 0, policy, trace=trace,
                           checkpoint_dir=ckpt)
    assert second.resumed
    assert second.replayer.published == events
    assert not second.done               # the stream's end is unseen
    assert second.step(BATCH) == 0 and second.done
    resumed = facts(second)
    # the dead process wrote the checkpoints; the diagnosis is equal
    assert resumed.pop("checkpoints") == 0
    expected.pop("checkpoints")
    assert resumed == expected


def test_finalize_before_the_stream_ends_still_finishes(corpus):
    """A caller that cuts a stream short gets a final snapshot over
    what was admitted, as before."""
    trace, _events = corpus[LABELS[0]]
    policy = policy_for(0, False, False)
    cut = TenantRuntime("t", 0, policy, trace=trace)
    cut.step(100)
    reference = DeferredTenant("t", 0, policy, trace=trace)
    reference.step(100)
    assert not cut.replayer.done
    assert cut.finalize().canonical_json() \
        == reference.finalize().canonical_json()
    assert cut.done and cut.step(BATCH) == 0


# ----------------------------------------------------------------------
# (b) publication does not move: rolling reports are the parent's
# ----------------------------------------------------------------------
def shard_of(cls, corpus, policy, workdir=None) -> ShardRuntime:
    """One elephant and two mice: the mice end rounds before it."""
    tenants = []
    for name, label in (("elephant", "incast-n12"),
                        ("mouse-a", "pfc_storm-n8"),
                        ("mouse-b", "flow_contention-n8")):
        tenants.append(cls(
            name, 0, policy, trace=corpus[label][0],
            checkpoint_dir=None if workdir is None
            else str(workdir / name)))
    return ShardRuntime(0, tenants)


def as_bytes(report, drop=()) -> str:
    data = report.to_dict()
    for key in drop:
        data.pop(key)
    return json.dumps(data, sort_keys=True)


@pytest.mark.parametrize("checkpoints", [False, True],
                         ids=["stateless", "checkpointed"])
def test_rolling_reports_are_byte_equal_to_the_parents(
        corpus, tmp_path, checkpoints):
    policy = TenantPolicy(snapshot_every=32,
                          checkpoint_every=16 if checkpoints else 0)
    held = shard_of(TenantRuntime, corpus, policy,
                    tmp_path / "held" if checkpoints else None)
    deferred = shard_of(DeferredTenant, corpus, policy,
                        tmp_path / "deferred" if checkpoints else None)
    # the final checkpoint is written (and counted) at stream end now,
    # not at shard end: the one operational field that may run ahead
    drop = ("checkpoints_written",) if checkpoints else ()
    waited = 0
    while not held.done:
        assert held.step(BATCH) == deferred.step(BATCH)
        ours = held.report(final=False)
        theirs = deferred.report(final=False)
        assert as_bytes(ours, drop) == as_bytes(theirs, drop)
        assert ours.checkpoints_written >= theirs.checkpoints_written
        assert not ours.final
        assert not any(t.final for t in ours.tenants)
        ended = [t for t in held.tenants if t.replayer.exhausted]
        waited += bool(ended) and not held.done
        for tenant in ended:             # held, unpublished, released
            assert tenant.final is None
            assert not tenant.latest_snapshot().final
    assert waited >= 4                   # mice held while others ran
    assert deferred.done
    held.finalize()
    deferred.finalize()
    last = held.report(final=True)
    assert as_bytes(last) == as_bytes(deferred.report(final=True))
    assert last.final and all(t.final for t in last.tenants)


def test_a_tenant_without_a_rolling_snapshot_keeps_its_peek(corpus):
    """Fewer events than one pump: nothing ingested, nothing emitted
    when the stream ends; rolling reports keep the on-demand look the
    parent took (seq 0, nothing ingested), not the final."""
    trace, events = corpus["pfc_storm-n8"]
    policy = TenantPolicy(snapshot_every=32, checkpoint_every=0,
                          event_budget=40)
    held = ShardRuntime(0, [TenantRuntime("t", 0, policy, trace=trace)])
    deferred = ShardRuntime(0, [DeferredTenant("t", 0, policy,
                                               trace=trace)])
    for shard in (held, deferred):
        while not shard.done:
            shard.step(1000)
    rolling = held.report(final=False)
    assert as_bytes(rolling) == as_bytes(deferred.report(final=False))
    assert rolling.tenants[0].seq == 0
    assert rolling.tenants[0].step_records == 0
    assert held.report(final=False).tenants[0] is rolling.tenants[0]
    held.finalize()
    deferred.finalize()
    assert as_bytes(held.report(final=True)) \
        == as_bytes(deferred.report(final=True))
    assert held.tenants[0].events_shed == events - 40


# ----------------------------------------------------------------------
# (c) no refold: one prepared form per report over a tenant's life
# ----------------------------------------------------------------------
@pytest.fixture
def prepared_builds(monkeypatch):
    builds = []
    real = provenance.PreparedReport.__init__

    def counting(self, report, *args, **kwargs):
        builds.append(report)
        real(self, report, *args, **kwargs)

    monkeypatch.setattr(provenance.PreparedReport, "__init__", counting)
    return builds


@pytest.mark.parametrize("label", LABELS)
def test_every_report_is_prepared_exactly_once(corpus, prepared_builds,
                                               label):
    trace, _events = corpus[label]
    policy = TenantPolicy(snapshot_every=16, checkpoint_every=0)
    shard = ShardRuntime(0, [TenantRuntime("t", 0, policy, trace=trace)])
    while not shard.done:
        shard.step(BATCH)
        shard.report(final=False)
    shard.report(final=False)            # ended, held, asked again
    shard.finalize()
    final = shard.report(final=True).tenants[0]
    assert final.final and final.switch_reports > 0
    assert len(prepared_builds) == final.switch_reports
    assert len({id(report) for report in prepared_builds}) \
        == final.switch_reports

    # the counter can tell: the parent's drop-then-refold order
    # prepares every report a second time
    prepared_builds.clear()
    run_to_done(DeferredTenant("t", 0, policy, trace=trace)).finalize()
    assert len(prepared_builds) > final.switch_reports


# ----------------------------------------------------------------------
# what a held tenant keeps, and what it gives back
# ----------------------------------------------------------------------
def test_a_held_tenant_releases_what_only_a_snapshot_reads(corpus,
                                                           tmp_path):
    trace, events = corpus["incast-n12"]
    policy = TenantPolicy(snapshot_every=32, checkpoint_every=64,
                          event_budget=events - 100)
    tenants = [run_to_done(cls("t", 0, policy, trace=trace,
                               checkpoint_dir=str(tmp_path / name)))
               for cls, name in ((TenantRuntime, "held"),
                                 (DeferredTenant, "deferred"))]
    held, deferred = tenants
    pipeline = held.pipeline
    assert pipeline.reports == [] and pipeline.snapshots == []
    graph = pipeline.graph
    assert not graph.records and not graph.durations and not graph.windows
    assert graph.critical_flows_by_step() == {}
    assert deferred.pipeline.graph.records \
        and deferred.pipeline.graph.windows
    assert len(pipeline.bus) == 0 and pipeline.watermark.buffered == 0
    assert deferred.pipeline.reports and deferred.pipeline.snapshots
    deferred.finalize()
    # ... keeping what reports and the exporter still read
    assert held.events_admitted == deferred.events_admitted
    assert held.events_shed == deferred.events_shed == 100
    assert held.budget_exhausted
    assert held.watermark_ns() == deferred.watermark_ns() > 0
    assert held.manager.written == deferred.manager.written > 0
    assert held.pipeline.latency.total \
        == deferred.pipeline.latency.total == held.events_admitted
    assert held.pipeline.degradation.confidence() \
        == deferred.pipeline.degradation.confidence()
    assert held.pipeline.counters()["graph_pruned"] \
        == deferred.pipeline.counters()["graph_pruned"]


# ----------------------------------------------------------------------
# (d) both execution modes hand out the same verdicts
# ----------------------------------------------------------------------
def test_in_process_equals_worker_equals_report_file(corpus, tmp_path):
    specs = [TenantSpec(tenant=f"tenant-{index}",
                        trace=corpus[label][0])
             for index, label in enumerate(LABELS)]
    config = FleetConfig(
        shards=1, batch_events=BATCH, merge_every_rounds=2,
        policy=TenantPolicy(snapshot_every=32, checkpoint_every=0))
    merges = []
    final = FleetService(config, specs).run(on_merge=merges.append)
    assert final.final and final.totals["tenants_final"] == len(specs)
    # no tenant turns final in a rolling merge: its shard's last
    # report publishes it
    assert len(merges) > 2
    assert not any(t.final for merge in merges[:-1]
                   for t in merge.tenants)

    for preload in (False, True):
        path = str(tmp_path / f"shard-{preload}.json")
        assert worker_main(make_shard_spec(
            config, 0, specs, path, report_every_rounds=2,
            preload_traces=preload)) == 0
        report = read_report(path)
        assert report is not None and report.final
        assert [t.to_dict() for t in report.tenants] \
            == [t.to_dict() for t in final.tenants]
    lone = {spec.tenant: TenantDigest.from_snapshot(
        0, spec.tenant, run_to_done(TenantRuntime(
            spec.tenant, 0, config.policy,
            trace=spec.trace)).finalize()).snapshot_digest
        for spec in specs}
    assert {t.tenant: t.snapshot_digest for t in final.tenants} == lone


def test_fleet_service_run_has_no_truncation_parameter():
    """``run(max_rounds=...)`` finalised every tenant of a truncated
    run and called the result final; it had no caller and is gone."""
    assert list(inspect.signature(FleetService.run).parameters) \
        == ["self", "on_merge"]
