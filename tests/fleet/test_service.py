"""The in-process reference fleet: determinism, metrics, status
files."""

import pytest

from repro.fleet.aggregator import TenantDigest
from repro.fleet.service import (
    FleetConfig,
    FleetService,
    read_status,
    registry_from_snapshot,
    specs_from_plan,
    write_status,
)
from repro.fleet.sharding import replicate_tenants
from repro.fleet.tenancy import TenantPolicy


def fast_policy(**overrides) -> TenantPolicy:
    defaults = dict(snapshot_every=16, checkpoint_every=0)
    defaults.update(overrides)
    return TenantPolicy(**defaults)


@pytest.fixture(scope="module")
def tenants(trace_path):
    return replicate_tenants([str(trace_path)], replicate=4)


def build_service(tenants, **config_overrides) -> FleetService:
    defaults = dict(shards=2, policy=fast_policy(),
                    batch_events=64, merge_every_rounds=2)
    defaults.update(config_overrides)
    return FleetService(FleetConfig(**defaults), tenants)


def test_fleet_config_round_trips():
    config = FleetConfig(shards=3, vnodes=16,
                         policy=fast_policy(event_budget=9),
                         workdir="/tmp/x", batch_events=7,
                         merge_every_rounds=5, mailbox_capacity=2)
    restored = FleetConfig.from_dict(config.to_dict())
    assert restored == config


def test_run_produces_a_final_covering_snapshot(tenants):
    service = build_service(tenants)
    final = service.run()
    assert final.final
    assert final.stale_shards == []
    assert final.totals["tenants"] == 4
    assert final.totals["tenants_final"] == 4
    assert final.watermark_ns is not None
    assert final.totals["events_admitted"] > 0
    assert service.latest is final
    # rolling merges happened before the final one
    assert final.seq > 1


def test_two_runs_are_bit_identical(tenants):
    first = build_service(tenants).run()
    second = build_service(tenants).run()
    assert first.diagnosis_json() == second.diagnosis_json()
    assert first.canonical_json() == second.canonical_json()


def test_rolling_merges_arrive_during_the_run(tenants):
    merges = []
    service = build_service(tenants)
    service.run(on_merge=merges.append)
    assert len(merges) >= 2
    assert not merges[0].final
    assert merges[-1].final
    seqs = [m.seq for m in merges]
    assert seqs == sorted(seqs)


def test_budget_quarantine_surfaces_in_the_snapshot(tenants):
    service = build_service(
        tenants, policy=fast_policy(event_budget=25))
    final = service.run()
    assert final.totals["tenants_budget_exhausted"] == 4
    assert final.totals["events_shed"] > 0
    assert all(t.budget_exhausted for t in final.tenants)
    assert all(t.events_admitted == 25 for t in final.tenants)


def test_export_into_has_fleet_shard_and_tenant_series(tenants):
    """One registry builder serves every exporter: the snapshot's
    series plus what the aggregator's freshest reports carry."""
    service = build_service(tenants)
    final = service.run()
    registry = service.aggregator.export_into(registry_from_snapshot(
        final, service.aggregator.dropped_total()))
    names = registry.names()
    assert "fleet_shards" in names
    assert "fleet_tenants" in names
    assert "fleet_merge_seconds" in names
    assert "fleet_ingest_to_snapshot_seconds" in names
    for shard in service.shards:
        labels = f'{{shard="{shard.shard_id}"}}'
        assert registry[f"fleet_shard_events_consumed_total{labels}"] \
            .value == shard.events_consumed > 0
        assert registry[f"fleet_shard_restarts_total{labels}"].value == 0
        assert registry[
            f"fleet_shard_checkpoints_written_total{labels}"].value == 0
        assert f"fleet_shard_ingest_to_snapshot_seconds{labels}" in names
    tenant_series = [n for n in names
                     if n.startswith("fleet_tenant_confidence{")]
    assert len(tenant_series) == 4
    assert registry["fleet_tenants"].value == 4


def test_export_into_folds_shipped_lateness():
    """A worker ships its shard's ingest-to-snapshot histogram home in
    each report; the exporter labels it per shard and sums the fleet."""
    from repro.fleet.aggregator import FleetAggregator, ShardReport
    from repro.live.metrics import Histogram, MetricsRegistry

    aggregator = FleetAggregator([0, 1, 2])
    for shard_id, samples in ((0, [0.001, 0.002]), (1, [0.5])):
        shipped = Histogram("shard")
        for value in samples:
            shipped.observe(value)
        aggregator.offer(ShardReport(
            shard_id=shard_id, final=True, events_consumed=7,
            restarts=shard_id, checkpoints_written=3,
            lateness=shipped.state_dict()))
    registry = aggregator.export_into(MetricsRegistry())
    fleet = registry["fleet_ingest_to_snapshot_seconds"]
    assert fleet.total == 3 and fleet.max == 0.5
    assert registry['fleet_shard_ingest_to_snapshot_seconds{shard="0"}'] \
        .total == 2
    assert registry['fleet_shard_restarts_total{shard="1"}'].value == 1
    # a shard that has not reported yet exports zeros, not nothing
    assert registry['fleet_shard_ingest_to_snapshot_seconds{shard="2"}'] \
        .total == 0
    assert registry['fleet_shard_events_consumed_total{shard="2"}'] \
        .value == 0


def test_registry_from_snapshot_needs_only_the_snapshot(tenants):
    final = build_service(tenants).run()
    registry = registry_from_snapshot(final, dropped_reports=3)
    assert registry["fleet_merge_seq"].value == final.seq
    assert registry["fleet_reports_dropped_total"].value == 3
    assert registry["fleet_tenants"].value == 4
    watermarks = [m.value for m in registry.metrics()
                  if m.name == "fleet_tenant_watermark_ns"]
    assert len(watermarks) == 4
    assert all(value > 0 for value in watermarks)


def test_status_file_round_trips(tenants, tmp_path):
    status_path = str(tmp_path / "deep" / "status.json")
    final = build_service(tenants).run(
        on_merge=lambda snapshot: write_status(status_path, snapshot))
    assert read_status(status_path) == final.to_dict()
    assert not list((tmp_path / "deep").glob("*.tmp"))


def test_read_status_swallows_garbage(tmp_path):
    assert read_status(str(tmp_path / "missing.json")) is None
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert read_status(str(bad)) is None


def test_specs_from_plan_flattens_in_shard_order(tenants):
    service = build_service(tenants)
    flat = specs_from_plan(service.plan)
    assert sorted(s.tenant for s in flat) \
        == sorted(s.tenant for s in tenants)


@pytest.fixture
def digest_calls(monkeypatch) -> list:
    """The tenant of every ``TenantDigest.from_snapshot`` call."""
    calls = []
    real = TenantDigest.from_snapshot.__func__

    def counting(cls, shard_id, tenant, *args, **kwargs):
        calls.append(tenant)
        return real(cls, shard_id, tenant, *args, **kwargs)

    monkeypatch.setattr(TenantDigest, "from_snapshot",
                        classmethod(counting))
    return calls


def test_report_digests_only_what_changed(trace_events, digest_calls):
    """``TenantDigest.from_snapshot`` is canonical JSON + SHA-256 +
    ranking; a tenant whose snapshot object and counts did not change
    since the last report keeps its digest."""
    from repro.fleet.service import ShardRuntime
    from repro.fleet.tenancy import TenantRuntime

    header, events = trace_events
    policy = TenantPolicy(snapshot_every=16, checkpoint_every=0)
    shard = ShardRuntime(0, [
        TenantRuntime(name, 0, policy, events=iter(events), header=header)
        for name in ("a", "b", "c")])
    calls = digest_calls
    shard.step(80)
    assert all(t.pipeline.snapshots for t in shard.tenants)
    first = shard.report()
    assert sorted(calls) == ["a", "b", "c"]
    calls.clear()
    assert shard.report().to_dict() == first.to_dict()   # idle shard
    assert calls == []
    shard.tenants[1].step(80)             # one tenant moves on
    second = shard.report()
    assert calls == ["b"]
    assert second.tenants[0] is first.tenants[0]
    assert second.tenants[1].seq > first.tenants[1].seq
    calls.clear()
    shard.finalize()
    assert all(t.final for t in shard.report(final=True).tenants)
    assert sorted(calls) == ["a", "b", "c"]


def test_an_unstarted_tenant_is_digested_once(trace_events,
                                              digest_calls):
    """A tenant that has not started answers every rolling report with
    one on-demand snapshot, so its digest is made once, not per report
    — shortest-stream-first leaves most tenants unstarted early on."""
    from repro.fleet.service import ShardRuntime
    from repro.fleet.tenancy import TenantRuntime

    header, events = trace_events
    policy = TenantPolicy(snapshot_every=16, checkpoint_every=0)
    shard = ShardRuntime(0, [
        TenantRuntime(name, 0, policy, events=events, header=header)
        for name in ("a", "b", "c")])
    first = shard.report()
    for _ in range(3):
        assert shard.report().tenants == first.tenants
    assert sorted(digest_calls) == ["a", "b", "c"]
    digest_calls.clear()
    shard.step(8)                   # "a" (equal lengths: by name) starts
    assert shard.tenants[0].replayer.published == 24
    assert [t.replayer.published for t in shard.tenants[1:]] \
        == [0, 0]
    second = shard.report()
    shard.report()
    assert digest_calls == ["a"]
    assert second.tenants[1] is first.tenants[1]
    assert second.tenants[2] is first.tenants[2]
