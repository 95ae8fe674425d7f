"""Consistent-hash routing: stability, spread, and plan mechanics."""

import pytest

from repro.fleet.sharding import (
    HashRing,
    TenantSpec,
    plan_shards,
    replicate_tenants,
    shard_workdir,
    stable_hash,
    tenant_checkpoint_dir,
)


def moved_tenants(before: dict[int, list[TenantSpec]],
                  after: dict[int, list[TenantSpec]]) -> int:
    """How many tenants changed shard between two plans (the
    consistent-hash stability metric)."""
    owner_before = {t.tenant: shard
                    for shard, assigned in before.items() for t in assigned}
    owner_after = {t.tenant: shard
                   for shard, assigned in after.items() for t in assigned}
    return sum(1 for tenant, shard in owner_before.items()
               if owner_after.get(tenant, shard) != shard)


def specs(n: int) -> list[TenantSpec]:
    return [TenantSpec(tenant=f"job-{i:04d}", trace=f"{i}.jsonl")
            for i in range(n)]


def test_stable_hash_is_process_stable():
    # pinned values: routing must agree across interpreter runs,
    # PYTHONHASHSEED, and OS processes
    assert stable_hash("tenant-a") == stable_hash("tenant-a")
    assert stable_hash("tenant-a") != stable_hash("tenant-b")
    assert stable_hash("") == 0xE3B0C44298FC1C14


def test_ring_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        HashRing(0)
    with pytest.raises(ValueError):
        HashRing(4, vnodes=0)


def test_assign_covers_every_shard_and_every_tenant():
    tenants = specs(50)
    plan = plan_shards(tenants, shards=8)
    assert sorted(plan) == list(range(8))
    flat = [t.tenant for shard in sorted(plan)
            for t in plan[shard]]
    assert sorted(flat) == sorted(t.tenant for t in tenants)
    for assigned in plan.values():
        assert [t.tenant for t in assigned] \
            == sorted(t.tenant for t in assigned)


def test_growing_the_fleet_moves_few_tenants():
    tenants = specs(400)
    before = plan_shards(tenants, shards=8)
    after = plan_shards(tenants, shards=9)
    moved = moved_tenants(before, after)
    # consistent hashing: ~1/9 of tenants move; a modulo partition
    # would move ~8/9.  Allow 3x slack over the ideal.
    assert 0 < moved < len(tenants) / 3


def test_same_plan_moves_nothing():
    tenants = specs(100)
    assert moved_tenants(plan_shards(tenants, 4),
                         plan_shards(tenants, 4)) == 0


def test_replicate_tenants_expands_and_dedupes():
    spec_list = replicate_tenants(
        ["a/run.jsonl", "b/run.jsonl"], replicate=3)
    names = [s.tenant for s in spec_list]
    assert names == ["run", "run-1", "run-2",
                     "run.1", "run.1-1", "run.1-2"]
    assert len(set(names)) == len(names)
    assert spec_list[3].trace == "b/run.jsonl"


def test_workdir_layout_sanitizes_tenant_names():
    shard_dir = shard_workdir("/tmp/fleet", 7)
    assert shard_dir.endswith("shard-007")
    ckpt = tenant_checkpoint_dir(shard_dir, "job/../../evil name")
    assert "/../" not in ckpt.replace("shard-007", "")
    assert ckpt.endswith("checkpoints")
    assert "tenant-job" in ckpt
