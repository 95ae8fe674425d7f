"""Per-tenant isolation: budgets, quarantine flags, resume parity."""

import json

from repro.fleet.tenancy import TenantPolicy, TenantRuntime


def run_to_done(tenant: TenantRuntime, batch: int = 64):
    while not tenant.done:
        tenant.step(batch)
    return tenant.finalize()


def final_json(snapshot) -> str:
    return json.dumps(snapshot.to_dict(), sort_keys=True)


def test_unbudgeted_tenant_admits_everything(trace_path):
    policy = TenantPolicy(checkpoint_every=0)
    tenant = TenantRuntime("t0", 0, policy, trace=str(trace_path))
    run_to_done(tenant)
    assert tenant.events_admitted > 0
    assert tenant.events_shed == 0
    assert not tenant.budget_exhausted


def test_budget_sheds_the_exact_tail(trace_path):
    policy = TenantPolicy(checkpoint_every=0)
    full = TenantRuntime("full", 0, policy, trace=str(trace_path))
    run_to_done(full)
    total = full.events_admitted

    budget = total // 2
    capped_policy = TenantPolicy(event_budget=budget,
                                 checkpoint_every=0)
    capped = TenantRuntime("capped", 0, capped_policy,
                           trace=str(trace_path))
    run_to_done(capped)
    assert capped.events_admitted == budget
    assert capped.events_shed == total - budget
    assert capped.budget_exhausted
    # the cursor still covers the whole stream (resume stays correct)
    assert capped.replayer.cursor.published == total


def test_budget_shedding_is_deterministic(trace_path):
    policy = TenantPolicy(event_budget=40, checkpoint_every=0)
    finals = [
        final_json(run_to_done(
            TenantRuntime("t", 0, policy, trace=str(trace_path)),
            batch=batch))
        for batch in (7, 64, 1000)
    ]
    # admission depends only on stream position, never on batching
    assert finals[0] == finals[1] == finals[2]


def test_interrupted_budgeted_tenant_resumes_equal(trace_path,
                                                   tmp_path):
    policy = TenantPolicy(event_budget=60, snapshot_every=16,
                          checkpoint_every=16)
    baseline = TenantRuntime("t", 0, TenantPolicy(
        event_budget=60, snapshot_every=16, checkpoint_every=0),
        trace=str(trace_path))
    expected = run_to_done(baseline)

    ckpt = str(tmp_path / "ckpt")
    first = TenantRuntime("t", 0, policy, trace=str(trace_path),
                          checkpoint_dir=ckpt)
    first.step(40)  # past at least one checkpoint, then "crash"
    assert first.manager is not None and first.manager.written > 0

    second = TenantRuntime("t", 0, policy, trace=str(trace_path),
                           checkpoint_dir=ckpt)
    assert second.resumed
    final = run_to_done(second)
    assert final_json(final) == final_json(expected)
    assert second.budget_exhausted


def test_latest_snapshot_never_blocks_on_finish(trace_path):
    policy = TenantPolicy(snapshot_every=16, checkpoint_every=0)
    tenant = TenantRuntime("t", 0, policy, trace=str(trace_path))
    # nothing replayed yet: emitted on demand, not final
    early = tenant.latest_snapshot()
    assert not early.final
    tenant.step(32)
    rolling = tenant.latest_snapshot()
    assert not rolling.final
    final = run_to_done(tenant)
    assert tenant.latest_snapshot() is final
    assert final.final


def test_rolling_report_before_the_first_snapshot_changes_nothing(
        trace_path, tmp_path):
    """A shard's rolling report looks at a tenant that has emitted no
    snapshot yet; the look must stay outside the snapshot sequence, or
    the final digest differs from a lone replay's — uninterrupted and
    across a resume (``load_state`` drops the emitted snapshots too)."""
    from repro.fleet.aggregator import TenantDigest
    from repro.fleet.service import ShardRuntime

    policy = TenantPolicy(snapshot_every=16, checkpoint_every=16)

    def digest(tenant: TenantRuntime) -> str:
        return TenantDigest.from_snapshot(
            0, tenant.tenant, tenant.finalize()).snapshot_digest

    lone = TenantRuntime("t", 0, policy, trace=str(trace_path))
    run_to_done(lone)

    watched = TenantRuntime("t", 0, policy, trace=str(trace_path))
    shard = ShardRuntime(0, [watched])
    early = shard.report(final=False).tenants[0]
    assert not early.final and early.seq == 0
    assert watched.pipeline.snapshots == []
    watched.step(8)                       # still short of a snapshot
    shard.report(final=False)
    run_to_done(watched)
    assert watched.final.seq == lone.final.seq
    assert digest(watched) == digest(lone)

    ckpt = str(tmp_path / "ckpt")
    first = TenantRuntime("t", 0, policy, trace=str(trace_path),
                          checkpoint_dir=ckpt)
    first.step(40)                        # checkpointed, then "crash"
    second = TenantRuntime("t", 0, policy, trace=str(trace_path),
                           checkpoint_dir=ckpt)
    assert second.resumed and second.pipeline.snapshots == []
    ShardRuntime(0, [second]).report(final=False)
    run_to_done(second)
    assert digest(second) == digest(lone)
