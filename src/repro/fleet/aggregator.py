"""Fan-in aggregation: per-shard reports merged into fleet snapshots.

The merge is a *pure, deterministic* function of its inputs:

* tenants are ordered by ``(shard_id, tenant)`` — the shard id is the
  tie-break for any cross-shard ordering decision, so two merges over
  the same reports produce byte-identical output regardless of
  arrival order;
* the fleet watermark is the **minimum** over the reporting shards'
  watermarks (each shard's watermark is the minimum over its tenants)
  — the fleet never claims event-time progress a straggler has not
  reached;
* totals are plain sums over tenant digests.

Shard reports arrive through bounded :class:`ShardMailbox`\\ es
(drop-oldest): a slow or dead shard can stale *its own* tenants'
entries in the fleet snapshot (it appears in ``stale_shards``) but
never blocks the other shards' fan-in.

With a :class:`HealthPolicy` the aggregator also tracks per-shard
*liveness* from report/heartbeat arrival times: a shard unheard-of
past ``stale_after_s`` is ``stale``, past ``dead_after_s`` it is
``dead`` and excluded from the fleet watermark — the snapshot keeps
flowing, flagged ``degraded``, instead of stalling behind a corpse
(**degraded, never wrong**: the dead shard's tenants still appear
with their last-known digests).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.units import Seconds, ns_to_ms
from repro.live.metrics import Histogram, MetricsRegistry
from repro.live.pipeline import DiagnosisSnapshot


def _json_time(value: float) -> Optional[float]:
    """inf/-inf watermarks (nothing seen yet) are not valid JSON."""
    if math.isinf(value):
        return None
    return value


@dataclass(frozen=True)
class TenantDigest:
    """The fleet-visible summary of one tenant's latest snapshot."""

    shard_id: int
    tenant: str
    final: bool
    seq: int
    watermark_ns: Optional[float]
    step_records: int
    switch_reports: int
    confidence: float
    degraded: bool
    findings: tuple[str, ...]
    top_contributor: Optional[str]
    top_score: float
    events_admitted: int
    events_shed: int
    budget_exhausted: bool
    snapshot_digest: str

    @classmethod
    def from_snapshot(cls, shard_id: int, tenant: str,
                      snapshot: DiagnosisSnapshot,
                      events_admitted: int = 0,
                      events_shed: int = 0,
                      budget_exhausted: bool = False
                      ) -> "TenantDigest":
        ranked = snapshot.top_contributors(1)
        top_flow, top_score = (ranked[0][0].short(), ranked[0][1]) \
            if ranked and ranked[0][1] > 0 else (None, 0.0)
        digest = hashlib.sha256(
            snapshot.canonical_json().encode("utf-8")).hexdigest()
        return cls(
            shard_id=shard_id,
            tenant=tenant,
            final=snapshot.final,
            seq=snapshot.seq,
            watermark_ns=_json_time(snapshot.watermark_ns),
            step_records=snapshot.step_records_ingested,
            switch_reports=snapshot.switch_reports_ingested,
            confidence=snapshot.confidence,
            degraded=snapshot.degraded,
            findings=tuple(sorted({f.type.value
                                   for f in snapshot.result.findings})),
            top_contributor=top_flow,
            top_score=top_score,
            events_admitted=events_admitted,
            events_shed=events_shed,
            budget_exhausted=budget_exhausted,
            snapshot_digest=digest,
        )

    def to_dict(self) -> dict:
        return {
            "shard": self.shard_id,
            "tenant": self.tenant,
            "final": self.final,
            "seq": self.seq,
            "watermark_ns": self.watermark_ns,
            "step_records": self.step_records,
            "switch_reports": self.switch_reports,
            "confidence": self.confidence,
            "degraded": self.degraded,
            "findings": list(self.findings),
            "top_contributor": self.top_contributor,
            "top_score": self.top_score,
            "events_admitted": self.events_admitted,
            "events_shed": self.events_shed,
            "budget_exhausted": self.budget_exhausted,
            "snapshot_digest": self.snapshot_digest,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TenantDigest":
        return cls(
            shard_id=int(data["shard"]),
            tenant=str(data["tenant"]),
            final=bool(data["final"]),
            seq=int(data["seq"]),
            watermark_ns=None if data["watermark_ns"] is None
            else float(data["watermark_ns"]),
            step_records=int(data["step_records"]),
            switch_reports=int(data["switch_reports"]),
            confidence=float(data["confidence"]),
            degraded=bool(data["degraded"]),
            findings=tuple(str(f) for f in data["findings"]),
            top_contributor=data["top_contributor"],
            top_score=float(data["top_score"]),
            events_admitted=int(data["events_admitted"]),
            events_shed=int(data["events_shed"]),
            budget_exhausted=bool(data["budget_exhausted"]),
            snapshot_digest=str(data["snapshot_digest"]),
        )


@dataclass(frozen=True)
class HealthPolicy:
    """Staleness/death thresholds for per-shard liveness tracking.

    Ages are measured since the shard's last report *or* heartbeat.
    A ``dead`` shard is excluded from the fleet watermark (after this
    grace it must not hold event-time progress hostage); a ``stale``
    one is only flagged.
    """

    #: unheard-of this long -> reported ``stale``
    stale_after_s: Seconds = 2.0
    #: unheard-of this long -> ``dead``: excluded from the watermark
    dead_after_s: Seconds = 10.0

    def classify(self, age_s: Seconds) -> str:
        if age_s >= self.dead_after_s:
            return "dead"
        if age_s >= self.stale_after_s:
            return "stale"
        return "live"


@dataclass
class ShardReport:
    """One shard's contribution to a fleet merge."""

    shard_id: int
    final: bool
    tenants: list[TenantDigest] = field(default_factory=list)
    restarts: int = 0
    checkpoints_written: int = 0
    events_consumed: int = 0
    # transport-channel observability (stamped by the worker's
    # ReportPublisher; operational — never part of the diagnosis)
    publish_failures: int = 0
    publish_fallbacks: int = 0
    transport_retries: int = 0
    breaker_state: int = 0
    #: optional serialized ingest-to-snapshot Histogram state (worker
    #: processes ship it home for the exporter and the benchmark)
    lateness: Optional[dict] = None

    @property
    def watermark_ns(self) -> Optional[float]:
        """Min over the shard's tenants; None when nothing reported."""
        marks = [t.watermark_ns for t in self.tenants
                 if t.watermark_ns is not None]
        if not marks or len(marks) < len(self.tenants):
            return None
        return min(marks)

    def to_dict(self) -> dict:
        return {
            "shard": self.shard_id,
            "final": self.final,
            "watermark_ns": self.watermark_ns,
            "restarts": self.restarts,
            "checkpoints_written": self.checkpoints_written,
            "events_consumed": self.events_consumed,
            "publish_failures": self.publish_failures,
            "publish_fallbacks": self.publish_fallbacks,
            "transport_retries": self.transport_retries,
            "breaker_state": self.breaker_state,
            "lateness": self.lateness,
            "tenants": [t.to_dict()
                        for t in sorted(self.tenants,
                                        key=lambda t: t.tenant)],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardReport":
        return cls(
            shard_id=int(data["shard"]),
            final=bool(data["final"]),
            tenants=[TenantDigest.from_dict(t)
                     for t in data["tenants"]],
            restarts=int(data.get("restarts", 0)),
            checkpoints_written=int(
                data.get("checkpoints_written", 0)),
            events_consumed=int(data.get("events_consumed", 0)),
            publish_failures=int(data.get("publish_failures", 0)),
            publish_fallbacks=int(data.get("publish_fallbacks", 0)),
            transport_retries=int(data.get("transport_retries", 0)),
            breaker_state=int(data.get("breaker_state", 0)),
            lateness=data.get("lateness"),
        )

    @classmethod
    def from_json(cls, text: str) -> Optional["ShardReport"]:
        """The report a JSON document spells, or None when it spells
        none: not JSON, or JSON of another shape (``[]``, ``"x"``, a
        null where a number or a list belongs, nesting too deep)."""
        try:
            return cls.from_dict(json.loads(text))
        except (ValueError, KeyError, TypeError, AttributeError,
                OverflowError, RecursionError):
            return None


@dataclass
class FleetSnapshot:
    """One deterministic fleet-level merge of per-shard reports."""

    seq: int
    final: bool
    watermark_ns: Optional[float]
    shards: list[int]
    stale_shards: list[int]
    tenants: list[TenantDigest]
    totals: dict
    #: per-shard liveness ("live" / "stale" / "dead"), keyed by the
    #: shard id as a string (JSON object keys); empty without a
    #: HealthPolicy — zero behavior change for health-blind callers
    shard_health: dict = field(default_factory=dict)
    #: True when this merge excluded dead shards from the watermark
    degraded: bool = False

    def head_dict(self) -> dict:
        """:meth:`to_dict` without the tenant list: every field
        :func:`fleet_line` reads, at a cost that does not grow with the
        tenant count."""
        return {
            "seq": self.seq,
            "final": self.final,
            "watermark_ns": self.watermark_ns,
            "shards": list(self.shards),
            "stale_shards": list(self.stale_shards),
            "shard_health": dict(self.shard_health),
            "degraded": self.degraded,
            "totals": dict(self.totals),
        }

    def to_dict(self) -> dict:
        data = self.head_dict()
        data["tenants"] = [t.to_dict() for t in self.tenants]
        return data

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")).hexdigest()

    #: totals that describe fleet *operations*, not the diagnosis —
    #: a crashed-and-resumed fleet legitimately differs here
    OPERATIONAL_KEYS = ("restarts", "checkpoints_written",
                        "publish_failures", "publish_fallbacks",
                        "transport_retries")

    def diagnosis_dict(self) -> dict:
        """:meth:`to_dict` minus operational fields (merge count,
        restart/checkpoint/transport totals, liveness).  This is the
        form the fleet recovery contract compares bit-for-bit: a
        fleet that was SIGKILLed and resumed — or that streamed its
        reports over a faulty socket — must match an uninterrupted
        in-process one here, while its restart/retry counters and
        health map may not."""
        data = self.to_dict()
        data.pop("seq", None)
        data.pop("shard_health", None)
        data.pop("degraded", None)
        for key in self.OPERATIONAL_KEYS:
            data["totals"].pop(key, None)
        return data

    def diagnosis_json(self) -> str:
        return json.dumps(self.diagnosis_dict(), sort_keys=True)


def fleet_line(data: dict) -> str:
    """The one-line operator view of a fleet snapshot in its
    :meth:`FleetSnapshot.to_dict` (or ``head_dict``) form: the rolling
    and final lines of ``repro fleet serve`` and the head of
    ``repro fleet status``."""
    totals = data["totals"]
    tag = "FINAL" if data["final"] else f"#{data['seq']}"
    wm = "-" if data["watermark_ns"] is None \
        else f"{ns_to_ms(data['watermark_ns']):.3f}ms"
    stale = f" stale={data['stale_shards']}" if data["stale_shards"] \
        else ""
    mode = " DEGRADED" if data["degraded"] else ""
    return (f"[{tag}] fleet wm={wm} "
            f"shards={len(data['shards'])} "
            f"tenants={totals['tenants']} "
            f"final={totals['tenants_final']} "
            f"anomalous={totals['tenants_with_findings']} "
            f"degraded={totals['tenants_degraded']} "
            f"shed={totals['events_shed']}{stale}{mode}")


def merge_reports(reports: Iterable[ShardReport],
                  expected_shards: Iterable[int],
                  seq: int = 0, final: bool = False,
                  dead_shards: Iterable[int] = (),
                  shard_health: Optional[dict] = None
                  ) -> FleetSnapshot:
    """The deterministic fan-in merge (see module docstring).

    ``expected_shards`` lists every shard the fleet should hear from;
    expected shards with no report land in ``stale_shards``.
    ``dead_shards`` (health-dead past the grace period) keep their
    tenants' last-known digests in the snapshot but are excluded from
    the fleet watermark; a merge that excluded any is ``degraded``.
    """
    by_shard: dict[int, ShardReport] = {}
    for report in reports:
        held = by_shard.get(report.shard_id)
        # latest report per shard wins; ties break on shard id order
        # by construction (one mailbox per shard)
        if held is None or report.events_consumed \
                >= held.events_consumed:
            by_shard[report.shard_id] = report
    expected = sorted(set(expected_shards))
    present = [s for s in expected if s in by_shard]
    stale = [s for s in expected if s not in by_shard]

    tenants: list[TenantDigest] = []
    for shard_id in present:
        tenants.extend(sorted(by_shard[shard_id].tenants,
                              key=lambda t: (t.shard_id, t.tenant)))
    tenants.sort(key=lambda t: (t.shard_id, t.tenant))

    # a shard with no tenants owns no stream, so it cannot hold the
    # fleet watermark back; a shard whose tenants have not produced a
    # watermark yet does (None stays None until every stream starts);
    # a dead shard stops counting after the grace period — the fleet
    # watermark may then run ahead of its last-known digests
    dead = set(dead_shards)
    marks = [by_shard[s].watermark_ns for s in present
             if by_shard[s].tenants and s not in dead]
    watermark = None
    if marks and all(m is not None for m in marks):
        watermark = min(marks)

    totals = {
        "tenants": len(tenants),
        "tenants_final": sum(1 for t in tenants if t.final),
        "tenants_degraded": sum(1 for t in tenants if t.degraded),
        "tenants_with_findings": sum(1 for t in tenants
                                     if t.findings),
        "tenants_budget_exhausted": sum(
            1 for t in tenants if t.budget_exhausted),
        "step_records": sum(t.step_records for t in tenants),
        "switch_reports": sum(t.switch_reports for t in tenants),
        "events_admitted": sum(t.events_admitted for t in tenants),
        "events_shed": sum(t.events_shed for t in tenants),
        "restarts": sum(by_shard[s].restarts for s in present),
        "checkpoints_written": sum(by_shard[s].checkpoints_written
                                   for s in present),
        "publish_failures": sum(by_shard[s].publish_failures
                                for s in present),
        "publish_fallbacks": sum(by_shard[s].publish_fallbacks
                                 for s in present),
        "transport_retries": sum(by_shard[s].transport_retries
                                 for s in present),
    }
    return FleetSnapshot(
        seq=seq,
        final=final,
        watermark_ns=watermark,
        shards=present,
        stale_shards=stale,
        tenants=tenants,
        totals=totals,
        shard_health=dict(shard_health or {}),
        degraded=bool(dead & set(expected)),
    )


class ShardMailbox:
    """Bounded drop-oldest queue of one shard's reports."""

    def __init__(self, capacity: int = 4) -> None:
        self.capacity = max(1, capacity)
        self._queue: deque[ShardReport] = deque()
        self.offered = 0
        self.dropped = 0

    def offer(self, report: ShardReport) -> None:
        self.offered += 1
        if len(self._queue) >= self.capacity:
            self._queue.popleft()
            self.dropped += 1
        self._queue.append(report)

    def latest(self) -> Optional[ShardReport]:
        return self._queue[-1] if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)


class FleetAggregator:
    """Holds one mailbox per shard and produces fleet snapshots.

    With a :class:`HealthPolicy` it also tracks per-shard liveness
    from :meth:`offer` / :meth:`heartbeat` arrival times; merges then
    carry the health map, exclude dead shards from the watermark and
    flag themselves ``degraded``.  Without one (``health=None``,
    the default) nothing changes — health-blind callers get the
    exact merges they always did.
    """

    def __init__(self, expected_shards: Iterable[int],
                 mailbox_capacity: int = 4,
                 health: Optional[HealthPolicy] = None,
                 clock=time.monotonic) -> None:
        self.expected = sorted(set(expected_shards))
        self.mailboxes = {shard: ShardMailbox(mailbox_capacity)
                          for shard in self.expected}
        self._seq = 0
        self.health = health
        self.clock = clock
        self._started_at = clock()
        self._last_seen: dict[int, float] = {}
        self.heartbeats = 0
        self.degraded_snapshots = 0
        self.merge_seconds = Histogram(
            "fleet_merge_seconds",
            "wall time to merge per-shard reports into one fleet "
            "snapshot")

    def offer(self, report: ShardReport) -> None:
        mailbox = self.mailboxes.get(report.shard_id)
        if mailbox is None:
            raise ValueError(
                f"report from unknown shard {report.shard_id}")
        mailbox.offer(report)
        self._last_seen[report.shard_id] = self.clock()

    def heartbeat(self, shard_id: int) -> None:
        """A liveness beat from a shard (no report attached)."""
        if shard_id not in self.mailboxes:
            raise ValueError(
                f"heartbeat from unknown shard {shard_id}")
        self.heartbeats += 1
        self._last_seen[shard_id] = self.clock()

    def last_seen_age_s(self, shard_id: int) -> float:
        """Seconds since the shard's last report or heartbeat (a
        never-heard-of shard ages from aggregator construction)."""
        seen = self._last_seen.get(shard_id, self._started_at)
        return max(0.0, self.clock() - seen)

    def shard_health(self) -> dict[int, str]:
        """Per-shard liveness now; empty without a health policy.

        A shard whose freshest report is its *final* one finished: it
        is ``live`` however long ago that was (a worker that exits
        goes silent by design, and the fleet watermark must keep
        counting its tenants).  A killed worker never sent one, so it
        still ages stale -> dead."""
        if self.health is None:
            return {}
        health = {}
        for shard in self.expected:
            report = self.mailboxes[shard].latest()
            health[shard] = "live" \
                if report is not None and report.final \
                else self.health.classify(self.last_seen_age_s(shard))
        return health

    def merge(self, final: bool = False,
              clock=None) -> FleetSnapshot:
        """Merge the freshest report per shard; never blocks on a
        shard whose mailbox is empty (it is reported stale) or on a
        health-dead shard (excluded from the watermark; the snapshot
        goes out ``degraded`` instead of late)."""
        import time as _time

        clock = clock or _time.perf_counter
        start = clock()
        self._seq += 1
        health = self.shard_health()
        dead = [shard for shard, state in sorted(health.items())
                if state == "dead"]
        reports = [box.latest() for box in self.mailboxes.values()]
        snapshot = merge_reports(
            [r for r in reports if r is not None],
            self.expected, seq=self._seq, final=final,
            dead_shards=dead,
            shard_health={str(shard): state
                          for shard, state in sorted(health.items())})
        if snapshot.degraded:
            self.degraded_snapshots += 1
        self.merge_seconds.observe(max(0.0, clock() - start))
        return snapshot

    def dropped_total(self) -> int:
        return sum(box.dropped for box in self.mailboxes.values())

    # ------------------------------------------------------------------
    def export_into(self, registry: MetricsRegistry
                    ) -> MetricsRegistry:
        """Aggregation-tier operational series: merge cost, per-shard
        mailbox drops, and what the freshest report of each shard
        carries — events consumed, restarts, checkpoints, transport
        counters, breaker state, the ingest-to-snapshot histogram —
        plus heartbeat ages and liveness codes.  Distinct names from
        the snapshot-level series, so both can share a registry.
        """
        health = self.shard_health()
        registry.attach(self.merge_seconds)
        registry.counter(
            "fleet_heartbeats_total",
            "shard liveness heartbeats received",
        ).inc(self.heartbeats)
        registry.counter(
            "fleet_degraded_snapshots_total",
            "rolling merges that excluded health-dead shards",
        ).inc(self.degraded_snapshots)
        lateness = registry.histogram(
            "fleet_ingest_to_snapshot_seconds",
            "wall time from event arrival to the snapshot including "
            "it, across every tenant of the fleet")
        for shard in self.expected:
            labels = {"shard": str(shard)}
            box = self.mailboxes[shard]
            report = box.latest()
            registry.counter(
                "fleet_shard_events_consumed_total",
                "stream events the shard consumed",
                labels=labels).inc(
                report.events_consumed if report else 0)
            registry.counter(
                "fleet_shard_restarts_total",
                "supervised restarts of the shard worker",
                labels=labels).inc(report.restarts if report else 0)
            registry.counter(
                "fleet_shard_checkpoints_written_total",
                "checkpoint snapshots persisted by the shard",
                labels=labels).inc(
                report.checkpoints_written if report else 0)
            shard_lateness = registry.histogram(
                "fleet_shard_ingest_to_snapshot_seconds",
                "wall time from event arrival to the snapshot "
                "including it, across every tenant of the shard",
                labels=labels)
            if report is not None and report.lateness:
                shard_lateness.load_state(report.lateness)
                lateness.merge_from(shard_lateness)
            registry.counter(
                "fleet_shard_reports_offered_total",
                "reports offered to the shard's bounded mailbox",
                labels=labels).inc(box.offered)
            registry.counter(
                "fleet_shard_reports_dropped_total",
                "reports shed (drop-oldest) by the shard's bounded "
                "mailbox",
                labels=labels).inc(box.dropped)
            registry.counter(
                "fleet_shard_publish_failures_total",
                "report publishes the shard's transport channel "
                "gave up on",
                labels=labels).inc(
                report.publish_failures if report else 0)
            registry.counter(
                "fleet_shard_publish_fallbacks_total",
                "reports the shard fell back to the atomic report "
                "file for",
                labels=labels).inc(
                report.publish_fallbacks if report else 0)
            registry.counter(
                "fleet_shard_transport_retries_total",
                "transport send/connect retries by the shard's "
                "publisher",
                labels=labels).inc(
                report.transport_retries if report else 0)
            registry.gauge(
                "fleet_shard_breaker_state",
                "shard publisher circuit breaker (0 closed, "
                "1 half-open, 2 open)",
                labels=labels).set(
                report.breaker_state if report else 0)
            if self.health is not None:
                registry.gauge(
                    "fleet_shard_heartbeat_age_seconds",
                    "seconds since the shard's last report or "
                    "heartbeat",
                    labels=labels).set(
                    round(self.last_seen_age_s(shard), 6))
                registry.gauge(
                    "fleet_shard_health",
                    "shard liveness (0 live, 1 stale, 2 dead)",
                    labels=labels).set(
                    {"live": 0, "stale": 1, "dead": 2}[health[shard]])
        return registry
