"""Fan-in merge determinism, watermark rules, bounded mailboxes."""

import pytest

from repro.fleet.aggregator import (
    FleetAggregator,
    ShardMailbox,
    ShardReport,
    TenantDigest,
    merge_reports,
)


def digest(shard: int, tenant: str, wm=1000.0, final=False,
           findings=(), degraded=False, admitted=10, shed=0,
           exhausted=False) -> TenantDigest:
    return TenantDigest(
        shard_id=shard, tenant=tenant, final=final, seq=1,
        watermark_ns=wm, step_records=5, switch_reports=5,
        confidence=1.0, degraded=degraded,
        findings=tuple(findings), top_contributor=None,
        top_score=0.0, events_admitted=admitted, events_shed=shed,
        budget_exhausted=exhausted,
        snapshot_digest="0" * 64)


def report(shard: int, tenants, final=False, consumed=0,
           restarts=0, checkpoints=0) -> ShardReport:
    return ShardReport(shard_id=shard, final=final,
                       tenants=list(tenants), restarts=restarts,
                       checkpoints_written=checkpoints,
                       events_consumed=consumed)


def test_tenant_digest_round_trips():
    original = digest(3, "job-a", wm=42.0, findings=("pfc_storm",),
                      degraded=True, shed=4, exhausted=True)
    assert TenantDigest.from_dict(original.to_dict()) == original


def test_none_watermark_round_trips():
    original = digest(0, "job-a", wm=None)
    restored = TenantDigest.from_dict(original.to_dict())
    assert restored.watermark_ns is None


def test_shard_report_round_trips():
    original = report(2, [digest(2, "b"), digest(2, "a")],
                      final=True, consumed=99, restarts=1,
                      checkpoints=7)
    restored = ShardReport.from_dict(original.to_dict())
    assert restored.shard_id == 2
    assert restored.restarts == 1
    assert restored.checkpoints_written == 7
    assert [t.tenant for t in restored.tenants] == ["a", "b"]


def test_shard_watermark_is_min_and_none_propagates():
    ready = report(0, [digest(0, "a", wm=300.0),
                       digest(0, "b", wm=100.0)])
    assert ready.watermark_ns == 100.0
    waiting = report(0, [digest(0, "a", wm=300.0),
                         digest(0, "b", wm=None)])
    assert waiting.watermark_ns is None
    assert report(0, []).watermark_ns is None


def test_merge_orders_tenants_by_shard_then_name():
    snapshot = merge_reports(
        [report(1, [digest(1, "zz"), digest(1, "aa")]),
         report(0, [digest(0, "mm")])],
        expected_shards=[0, 1])
    assert [(t.shard_id, t.tenant) for t in snapshot.tenants] \
        == [(0, "mm"), (1, "aa"), (1, "zz")]


def test_merge_is_deterministic_regardless_of_arrival_order():
    reports = [report(0, [digest(0, "a", wm=200.0)]),
               report(1, [digest(1, "b", wm=500.0)]),
               report(2, [digest(2, "c", wm=350.0)])]
    forward = merge_reports(reports, [0, 1, 2], seq=9)
    backward = merge_reports(list(reversed(reports)), [0, 1, 2],
                             seq=9)
    assert forward.canonical_json() == backward.canonical_json()
    assert forward.watermark_ns == 200.0


def test_missing_shard_is_stale_not_blocking():
    snapshot = merge_reports([report(0, [digest(0, "a")])],
                             expected_shards=[0, 1, 2])
    assert snapshot.shards == [0]
    assert snapshot.stale_shards == [1, 2]
    assert snapshot.totals["tenants"] == 1


def test_empty_shard_does_not_hold_the_watermark_back():
    snapshot = merge_reports(
        [report(0, [digest(0, "a", wm=700.0)]), report(1, [])],
        expected_shards=[0, 1])
    assert snapshot.watermark_ns == 700.0


def test_unstarted_tenant_holds_the_watermark_back():
    snapshot = merge_reports(
        [report(0, [digest(0, "a", wm=700.0)]),
         report(1, [digest(1, "b", wm=None)])],
        expected_shards=[0, 1])
    assert snapshot.watermark_ns is None


def test_freshest_report_per_shard_wins():
    snapshot = merge_reports(
        [report(0, [digest(0, "a", admitted=10)], consumed=10),
         report(0, [digest(0, "a", admitted=50)], consumed=50)],
        expected_shards=[0])
    assert snapshot.totals["events_admitted"] == 50


def test_totals_sum_across_shards():
    snapshot = merge_reports(
        [report(0, [digest(0, "a", findings=("echo",), degraded=True,
                           admitted=10, shed=2, exhausted=True)],
                restarts=1, checkpoints=3),
         report(1, [digest(1, "b", final=True, admitted=20)],
                restarts=2, checkpoints=4)],
        expected_shards=[0, 1])
    totals = snapshot.totals
    assert totals["tenants"] == 2
    assert totals["tenants_final"] == 1
    assert totals["tenants_degraded"] == 1
    assert totals["tenants_with_findings"] == 1
    assert totals["tenants_budget_exhausted"] == 1
    assert totals["events_admitted"] == 30
    assert totals["events_shed"] == 2
    assert totals["restarts"] == 3
    assert totals["checkpoints_written"] == 7


def test_diagnosis_dict_strips_operational_noise():
    snapshot = merge_reports(
        [report(0, [digest(0, "a")], restarts=5, checkpoints=9)],
        expected_shards=[0], seq=17)
    full = snapshot.to_dict()
    assert full["seq"] == 17
    assert full["totals"]["restarts"] == 5
    diagnosis = snapshot.diagnosis_dict()
    assert "seq" not in diagnosis
    assert "restarts" not in diagnosis["totals"]
    assert "checkpoints_written" not in diagnosis["totals"]
    # ... and nothing else: the diagnosis content stays intact
    assert diagnosis["tenants"] == full["tenants"]
    # restart count must not change the diagnosis digest
    calm = merge_reports([report(0, [digest(0, "a")])],
                         expected_shards=[0], seq=3)
    assert calm.diagnosis_json() == snapshot.diagnosis_json()
    assert calm.digest() != snapshot.digest()


def test_mailbox_drops_oldest_never_blocks():
    box = ShardMailbox(capacity=2)
    for consumed in (1, 2, 3, 4, 5):
        box.offer(report(0, [], consumed=consumed))
    assert len(box) == 2
    assert box.offered == 5
    assert box.dropped == 3
    assert box.latest().events_consumed == 5


def test_aggregator_rejects_unknown_shard():
    aggregator = FleetAggregator([0, 1])
    with pytest.raises(ValueError, match="unknown shard"):
        aggregator.offer(report(7, []))


def test_aggregator_merges_latest_and_counts_drops():
    aggregator = FleetAggregator([0, 1], mailbox_capacity=1)
    for consumed in (10, 20):
        aggregator.offer(report(0, [digest(0, "a")],
                                consumed=consumed))
    first = aggregator.merge()
    assert first.seq == 1
    assert first.shards == [0]
    assert first.stale_shards == [1]
    aggregator.offer(report(1, [digest(1, "b")], final=True))
    second = aggregator.merge(final=True)
    assert second.seq == 2
    assert second.stale_shards == []
    assert aggregator.dropped_total() == 1
    assert aggregator.merge_seconds.total == 2
