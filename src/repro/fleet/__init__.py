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

from repro._lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "aggregator": ("FleetAggregator", "TenantDigest", "merge_reports"),
    "exporter": ("MetricsExporter",),
    "service": ("FleetConfig", "FleetService"),
    "sharding": ("HashRing", "TenantSpec", "plan_shards",
                 "replicate_tenants"),
    "tenancy": ("TenantPolicy", "TenantRuntime"),
})
