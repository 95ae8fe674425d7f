"""repro.fleet — sharded multi-tenant diagnosis fleet.

One :class:`~repro.live.pipeline.LivePipeline` diagnoses one
collective.  This package scales that to a *fleet*: tenants
(monitored collectives) are consistent-hashed across N shards
(:mod:`~repro.fleet.sharding`), each shard replays its tenants under
per-tenant isolation budgets (:mod:`~repro.fleet.tenancy`) in a
supervised worker process (:mod:`~repro.fleet.worker`), and per-shard
reports stream back over a socket (:mod:`~repro.fleet.transport`,
whose ``run_fleet_streaming`` is the one fleet orchestrator) through
bounded mailboxes into deterministic fleet snapshots
(:mod:`~repro.fleet.aggregator`), scrapeable over HTTP in Prometheus
text format (:mod:`~repro.fleet.exporter`).  ``FleetService``
(:mod:`~repro.fleet.service`) runs the same shards inside one process
as the reference the worker fleet is tested against.

The load-bearing contract, proven by :mod:`repro.chaos`
(``repro fleet chaos``): SIGKILL any shard worker mid-replay, let
supervision resume it from its tenants' checkpoints, and the final
fleet snapshot's diagnosis content is bit-equal to an uninterrupted
run — with surviving shards' tenants untouched.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.fleet.aggregator import (
    FleetAggregator,
    FleetSnapshot,
    ShardMailbox,
    ShardReport,
    TenantDigest,
    merge_reports,
)
from repro.fleet.service import (
    FleetConfig,
    FleetService,
    ShardRuntime,
    build_shard_runtime,
    registry_from_snapshot,
)
from repro.fleet.sharding import (
    HashRing,
    TenantSpec,
    key_for_flow,
    moved_tenants,
    plan_shards,
    replicate_tenants,
    stable_hash,
)
from repro.fleet.tenancy import TenantPolicy, TenantRuntime

if TYPE_CHECKING:   # http.server and ssl: loaded when a fleet serves
    from repro.fleet.exporter import MetricsExporter, render_prometheus

__getattr__ = lazy_exports(__name__, {
    "exporter": ("MetricsExporter", "render_prometheus"),
})

__all__ = [
    "FleetAggregator",
    "FleetConfig",
    "FleetService",
    "FleetSnapshot",
    "HashRing",
    "MetricsExporter",
    "ShardMailbox",
    "ShardReport",
    "ShardRuntime",
    "TenantDigest",
    "TenantPolicy",
    "TenantRuntime",
    "TenantSpec",
    "build_shard_runtime",
    "key_for_flow",
    "merge_reports",
    "moved_tenants",
    "plan_shards",
    "registry_from_snapshot",
    "render_prometheus",
    "replicate_tenants",
    "stable_hash",
]
