"""Shard runtimes, the in-process reference fleet, status and metrics.

A worker process (:mod:`repro.fleet.worker`, orchestrated by
:func:`~repro.fleet.transport.run_fleet_streaming`) runs one
:class:`ShardRuntime`.  :class:`FleetService` is the reference
semantics and nothing else: it steps every shard inside one process
and fans rolling
:class:`~repro.fleet.aggregator.FleetSnapshot`\\ s in through a
:class:`~repro.fleet.aggregator.FleetAggregator`.  Both build shard
state through :func:`build_shard_runtime`, so a supervised fleet that
crashes and resumes must converge to the same final fleet snapshot
this service produces uninterrupted.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.core.durable import atomic_write
from repro.fleet.aggregator import (
    FleetAggregator,
    FleetSnapshot,
    ShardReport,
    TenantDigest,
)
from repro.fleet.sharding import (
    HashRing,
    TenantSpec,
    shard_workdir,
    tenant_checkpoint_dir,
)
from repro.fleet.tenancy import TenantPolicy, TenantRuntime
from repro.live.metrics import Histogram, MetricsRegistry


@dataclass(slots=True)
class FleetConfig:
    """Fleet-wide wiring knobs (primitives only — ships to workers)."""

    #: number of shards tenants are hashed across
    shards: int = 4
    #: virtual ring points per shard
    vnodes: int = 64
    #: isolation policy applied to every tenant
    policy: TenantPolicy = field(default_factory=TenantPolicy)
    #: fleet state root (per-shard checkpoint dirs); None = stateless
    workdir: Optional[str] = None
    #: a scheduling round's event budget per tenant unfinished at its
    #: start (shortest remaining stream first; <= 0 = every tenant to
    #: its end in one round)
    batch_events: int = 64
    #: scheduling rounds between rolling fleet merges
    merge_every_rounds: int = 4
    #: bounded per-shard mailbox depth at the aggregation tier
    mailbox_capacity: int = 4

    def to_dict(self) -> dict:
        return {
            "shards": self.shards,
            "vnodes": self.vnodes,
            "policy": self.policy.to_dict(),
            "workdir": self.workdir,
            "batch_events": self.batch_events,
            "merge_every_rounds": self.merge_every_rounds,
            "mailbox_capacity": self.mailbox_capacity,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetConfig":
        return cls(
            shards=int(data["shards"]),
            vnodes=int(data["vnodes"]),
            policy=TenantPolicy.from_dict(data["policy"]),
            workdir=data.get("workdir"),
            batch_events=int(data["batch_events"]),
            merge_every_rounds=int(data["merge_every_rounds"]),
            mailbox_capacity=int(data["mailbox_capacity"]),
        )


def build_shard_runtime(
        shard_id: int,
        specs: Sequence[TenantSpec],
        policy: TenantPolicy,
        workdir: Optional[str] = None,
        tenant_factory: Optional[Callable[[TenantSpec, int,
                                           TenantPolicy,
                                           Optional[str]],
                                          TenantRuntime]] = None,
) -> "ShardRuntime":
    """The one constructor worker processes and the reference share.

    ``workdir`` (the *fleet* root) turns on per-tenant durability:
    each tenant gets its own checkpoint directory under the shard's
    directory and resumes from it if snapshots exist.  A
    ``tenant_factory`` lets in-memory fleets (the benchmark) inject
    pre-decoded event streams instead of re-reading trace files.
    """
    shard_dir = shard_workdir(workdir, shard_id) \
        if workdir is not None else None
    tenants = []
    for spec in sorted(specs, key=lambda s: s.tenant):
        ckpt_dir = tenant_checkpoint_dir(shard_dir, spec.tenant) \
            if shard_dir is not None else None
        if tenant_factory is not None:
            runtime = tenant_factory(spec, shard_id, policy, ckpt_dir)
        else:
            runtime = TenantRuntime(
                spec.tenant, shard_id, policy,
                trace=spec.trace, checkpoint_dir=ckpt_dir)
        tenants.append(runtime)
    return ShardRuntime(shard_id, tenants)


def _shortest_first(tenant: TenantRuntime) -> tuple:
    remaining = tenant.remaining
    return (remaining is None, remaining or 0, tenant.tenant)


class ShardRuntime:
    """One shard: its tenants, a shortest-stream-first scheduler, a
    reporter."""

    def __init__(self, shard_id: int,
                 tenants: Sequence[TenantRuntime]) -> None:
        self.shard_id = shard_id
        self.tenants = sorted(tenants, key=lambda t: t.tenant)
        self.events_consumed = 0
        #: tenant -> (snapshot, counts, digest) of its last report
        self._digests: dict[str, tuple] = {}

    @property
    def done(self) -> bool:
        return all(t.done for t in self.tenants)

    @property
    def resumed(self) -> bool:
        return any(t.resumed for t in self.tenants)

    def checkpoints_written(self) -> int:
        return sum(t.manager.written for t in self.tenants
                   if t.manager is not None)

    def step(self, batch_events: int) -> int:
        """One scheduling round, shortest remaining stream first.

        The round spends at most ``batch_events`` events per tenant
        unfinished at its start.  Tenants are served in ``(remaining,
        name)`` order, each until its stream ends or the budget is
        spent, so a mouse ends — and releases its working set — before
        a longer stream starts.  A stream of unknown length sorts last
        and takes ``batch_events`` a round: with no length known this
        is round-robin.  ``batch_events <= 0`` runs every tenant to
        its end."""
        queue = sorted((t for t in self.tenants if not t.done),
                       key=_shortest_first)
        budget = batch_events * len(queue)
        consumed = 0
        for tenant in queue:
            grant = 0       # TenantRuntime.step(0): to the stream's end
            if batch_events > 0:
                grant = budget - consumed
                if grant <= 0:
                    break
                if tenant.remaining is None:
                    grant = min(grant, batch_events)
            consumed += tenant.step(grant)
        self.events_consumed += consumed
        return consumed

    def finalize(self) -> None:
        """Publish every tenant's final snapshot (each took its own
        when its stream ended)."""
        for tenant in self.tenants:
            tenant.finalize()

    def _digest(self, tenant: TenantRuntime,
                final: bool) -> TenantDigest:
        """The tenant's digest, made again only when the snapshot
        object or a count it carries changed since the last report."""
        snapshot = tenant.finalize() if final \
            else tenant.latest_snapshot()
        counts = (tenant.events_admitted, tenant.events_shed,
                  tenant.budget_exhausted)
        last = self._digests.get(tenant.tenant)
        if last is None or last[0] is not snapshot or last[1] != counts:
            last = self._digests[tenant.tenant] = (
                snapshot, counts, TenantDigest.from_snapshot(
                    self.shard_id, tenant.tenant, snapshot, *counts))
        return last[2]

    def report(self, final: bool = False) -> ShardReport:
        return ShardReport(
            shard_id=self.shard_id,
            final=final,
            tenants=[self._digest(t, final) for t in self.tenants],
            checkpoints_written=self.checkpoints_written(),
            events_consumed=self.events_consumed,
        )

    def merged_latency(self) -> Histogram:
        """All tenants' ingest-to-snapshot latency folded into one
        shard-level distribution."""
        merged = Histogram(
            "fleet_ingest_to_snapshot_seconds",
            "wall time from event arrival to the snapshot including "
            "it, across every tenant of the shard",
        )
        for tenant in self.tenants:
            merged.merge_from(tenant.pipeline.latency)
        return merged


class FleetService:
    """The reference fleet: every shard runtime in this process, no
    worker, socket or exporter (``fleet serve`` runs worker
    processes)."""

    def __init__(self, config: FleetConfig,
                 tenants: Sequence[TenantSpec],
                 tenant_factory=None) -> None:
        self.config = config
        self.ring = HashRing(config.shards, config.vnodes)
        self.plan = self.ring.assign(tenants)
        self.shards = [
            build_shard_runtime(shard_id, specs, config.policy,
                                config.workdir,
                                tenant_factory=tenant_factory)
            for shard_id, specs in sorted(self.plan.items())
        ]
        self.aggregator = FleetAggregator(
            sorted(self.plan), config.mailbox_capacity)
        self.rounds = 0
        self.latest: Optional[FleetSnapshot] = None

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return all(shard.done for shard in self.shards)

    def _offer_and_merge(self, final: bool) -> FleetSnapshot:
        for shard in self.shards:
            self.aggregator.offer(shard.report(final=final))
        snapshot = self.aggregator.merge(final=final)
        self.latest = snapshot
        return snapshot

    def run(self,
            on_merge: Optional[Callable[[FleetSnapshot], None]] = None
            ) -> FleetSnapshot:
        """Drive every shard to completion and return the final fleet
        snapshot."""
        while not self.done:
            for shard in self.shards:
                shard.step(self.config.batch_events)
            self.rounds += 1
            if self.rounds % max(1,
                                 self.config.merge_every_rounds) == 0:
                rolling = self._offer_and_merge(final=False)
                if on_merge is not None:
                    on_merge(rolling)
        for shard in self.shards:
            shard.finalize()
        snapshot = self._offer_and_merge(final=True)
        if on_merge is not None:
            on_merge(snapshot)
        return snapshot


def registry_from_snapshot(snapshot: FleetSnapshot,
                           dropped_reports: int = 0
                           ) -> MetricsRegistry:
    """Fleet/shard/tenant series rebuilt from a merged snapshot alone
    — the one place they are declared.

    Every exporter scrapes through this plus
    :meth:`FleetAggregator.export_into`: the exporter lives in the
    parent, shards are separate OS processes, and the merged snapshot
    and the shards' freshest reports are the only shared state.
    """
    registry = MetricsRegistry()
    registry.gauge(
        "fleet_shards",
        "shards the fleet expects reports from",
    ).set(len(snapshot.shards) + len(snapshot.stale_shards))
    registry.gauge(
        "fleet_stale_shards",
        "expected shards missing from the newest merge",
    ).set(len(snapshot.stale_shards))
    registry.gauge(
        "fleet_tenants",
        "tenants (monitored collectives) across the fleet",
    ).set(snapshot.totals["tenants"])
    registry.gauge(
        "fleet_merge_seq",
        "sequence number of the newest fleet snapshot",
    ).set(snapshot.seq)
    registry.gauge(
        "fleet_watermark_ns",
        "fleet event-time watermark (min over shards)",
    ).set(snapshot.watermark_ns
          if snapshot.watermark_ns is not None else 0.0)
    registry.counter(
        "fleet_reports_dropped_total",
        "shard reports shed by bounded aggregation mailboxes",
    ).inc(dropped_reports)
    registry.counter(
        "fleet_restarts_total",
        "supervised shard worker restarts",
    ).inc(snapshot.totals.get("restarts", 0))
    registry.gauge(
        "fleet_degraded",
        "1 when the newest merge excluded health-dead shards from "
        "the fleet watermark",
    ).set(int(snapshot.degraded))
    registry.counter(
        "fleet_publish_failures_total",
        "report publishes shard transport channels gave up on",
    ).inc(snapshot.totals.get("publish_failures", 0))
    registry.counter(
        "fleet_publish_fallbacks_total",
        "reports that fell back to the atomic report file",
    ).inc(snapshot.totals.get("publish_fallbacks", 0))
    registry.counter(
        "fleet_transport_retries_total",
        "transport send/connect retries across the fleet",
    ).inc(snapshot.totals.get("transport_retries", 0))

    by_shard: dict[int, list[TenantDigest]] = {}
    for digest in snapshot.tenants:
        by_shard.setdefault(digest.shard_id, []).append(digest)
    for shard_id in snapshot.shards:
        labels = {"shard": str(shard_id)}
        registry.gauge(
            "fleet_shard_tenants",
            "tenants owned by the shard",
            labels=labels).set(len(by_shard.get(shard_id, [])))
    for digest in snapshot.tenants:
        tlabels = {"shard": str(digest.shard_id),
                   "tenant": digest.tenant}
        registry.gauge(
            "fleet_tenant_watermark_ns",
            "event-time watermark of the tenant pipeline",
            labels=tlabels).set(
            digest.watermark_ns
            if digest.watermark_ns is not None else 0.0)
        registry.counter(
            "fleet_tenant_events_admitted_total",
            "events the tenant's budget admitted",
            labels=tlabels).inc(digest.events_admitted)
        registry.counter(
            "fleet_tenant_events_shed_total",
            "events shed past the tenant's budget",
            labels=tlabels).inc(digest.events_shed)
        registry.gauge(
            "fleet_tenant_budget_exhausted",
            "1 when the tenant exhausted its event budget",
            labels=tlabels).set(int(digest.budget_exhausted))
        registry.gauge(
            "fleet_tenant_degraded",
            "1 when the tenant diagnosis runs on incomplete "
            "telemetry",
            labels=tlabels).set(int(digest.degraded))
        registry.gauge(
            "fleet_tenant_confidence",
            "telemetry confidence of the tenant diagnosis "
            "(1.0 = full)",
            labels=tlabels).set(digest.confidence)
        registry.gauge(
            "fleet_tenant_findings",
            "distinct anomaly finding types in the tenant's newest "
            "diagnosis",
            labels=tlabels).set(len(digest.findings))
    return registry


def publish_json(path: str, data: dict) -> None:
    """Atomic, durable publish
    (:func:`~repro.core.durable.atomic_write`): a reader never sees a
    torn file, and a SIGKILL mid-write leaves the previous one.  Shard
    reports and fleet status files both go out through here."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    # dumps, not dump: dump streams through json's pure-Python encoder,
    # whose nested closures are a reference cycle per call; dumps runs
    # the C encoder and writes the same bytes
    payload = json.dumps(data, sort_keys=True).encode("utf-8")
    with atomic_write(path, durable=True) as handle:
        handle.write(payload)


def read_status(path: str) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
