"""Fleet-level chaos: SIGKILL real shard workers, prove recovery.

The single-pipeline harness (:mod:`repro.live.chaos`) proves the
per-tenant contract with *simulated* crashes.  This harness raises the
stakes to the fleet's availability claim:

    SIGKILL any subset of shard worker *processes* mid-replay (plus
    optional checkpoint corruption), let supervision restart them,
    and the final fleet snapshot's diagnosis content is bit-equal to
    an uninterrupted in-process run — and tenants on surviving
    shards are entirely untouched.

Kill points are deterministic (the worker hang-flag protocol in
:mod:`repro.fleet.worker`): the victim worker spins at an exact event
count and the supervisor SIGKILLs it, so the same seed reproduces the
same experiment.

The chaos fleet runs the way ``repro fleet serve`` does, through
:func:`~repro.fleet.transport.run_fleet_streaming`: workers stream
their reports over the socket channel, and the atomic report files are
always the final fan-in.  ``transport=True`` raises the stakes once
more: seeded network faults drop/garble received chunks, reset
connections and stall heartbeats — and the SIGKILLed shard's restart
backoff is tuned long enough that the health tracker declares it
*dead*, forcing degraded rolling snapshots.  The experiment passes
only if the fleet went degraded-then-recovered **and** the final
diagnosis is still bit-equal to the uninterrupted baseline (no
streamed fault can reach the report files).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.core import failpoints
from repro.fleet.aggregator import (
    FleetAggregator,
    FleetSnapshot,
    HealthPolicy,
)
from repro.fleet.service import FleetConfig, FleetService
from repro.fleet.sharding import (
    HashRing,
    TenantSpec,
    shard_workdir,
    tenant_checkpoint_dir,
)
from repro.fleet.transport import run_fleet_streaming
from repro.live.chaos import corrupt_newest_checkpoint
from repro.live.checkpoint import CheckpointManager
from repro.live.supervisor import RestartPolicy
from repro.traces import open_trace


@dataclass(frozen=True)
class FleetChaosPlan:
    """One reproducible fleet chaos experiment (a seed, victims, and
    what to do to their corpses)."""

    seed: int = 0
    #: shard workers to SIGKILL (chosen seeded among non-empty shards)
    kills: int = 1
    #: where in the victim shard's stream the kill lands (fraction of
    #: its total event count)
    kill_event_frac: float = 0.5
    #: additionally damage one victim tenant's newest checkpoint
    #: between the kill and the restart
    corrupt_checkpoint: bool = False
    #: truncate (instead of bit-flip) that checkpoint
    truncate_checkpoint: bool = False
    #: inject network faults into the socket fan-in and hold the
    #: killed shard down until it is health-dead (degraded snapshots)
    transport: bool = False
    #: parent-side probability of dropping a received chunk
    net_drop: float = 0.0
    #: parent-side probability of garbling a received chunk
    net_garble: float = 0.0
    #: parent-side connection resets to inject (count)
    net_resets: int = 0
    #: worker-side probability of stalling a heartbeat
    stall_heartbeats: float = 0.0


@dataclass
class FleetChaosReport:
    """Outcome of one :func:`run_fleet_chaos` experiment."""

    plan: FleetChaosPlan
    shards: int = 0
    tenants: int = 0
    victims: list[int] = field(default_factory=list)
    kills_delivered: int = 0
    restarts: int = 0
    checkpoints_corrupted: int = 0
    baseline_digest: str = ""
    recovered_digest: str = ""
    equal: bool = False
    survivors_clean: bool = False
    # fan-in observations (degraded snapshots need ``transport``)
    degraded_snapshots: int = 0
    recovered: bool = True
    transport_stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.equal and self.survivors_clean \
            and self.kills_delivered >= len(self.victims) \
            and self.recovered

    def to_dict(self) -> dict:
        return {
            "seed": self.plan.seed,
            "kills": self.plan.kills,
            "kill_event_frac": self.plan.kill_event_frac,
            "corrupt_checkpoint": self.plan.corrupt_checkpoint,
            "truncate_checkpoint": self.plan.truncate_checkpoint,
            "transport": self.plan.transport,
            "shards": self.shards,
            "tenants": self.tenants,
            "victims": list(self.victims),
            "kills_delivered": self.kills_delivered,
            "restarts": self.restarts,
            "checkpoints_corrupted": self.checkpoints_corrupted,
            "baseline_digest": self.baseline_digest,
            "recovered_digest": self.recovered_digest,
            "equal": self.equal,
            "survivors_clean": self.survivors_clean,
            "degraded_snapshots": self.degraded_snapshots,
            "recovered": self.recovered,
            "transport_stats": dict(self.transport_stats),
            "passed": self.passed,
        }

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extras = []
        if self.checkpoints_corrupted:
            extras.append(
                f"corrupted={self.checkpoints_corrupted}")
        if self.plan.transport:
            extras.append(f"degraded={self.degraded_snapshots}")
            extras.append(
                f"recovered={str(self.recovered).lower()}")
        tail = f" {' '.join(extras)}" if extras else ""
        return (f"[{verdict}] seed={self.plan.seed} "
                f"shards={self.shards} tenants={self.tenants} "
                f"victims={self.victims} "
                f"restarts={self.restarts} "
                f"bit-equal={str(self.equal).lower()} "
                f"survivors-clean="
                f"{str(self.survivors_clean).lower()}{tail}")


def default_restart_policy(seed: int = 0) -> RestartPolicy:
    """Fast, bounded backoff: chaos experiments restart quickly but a
    deterministically-dying shard still trips the breaker."""
    return RestartPolicy(max_restarts=8, window_s=60.0,
                         backoff_base_s=0.05, backoff_factor=2.0,
                         backoff_cap_s=0.5, jitter_frac=0.1,
                         seed=seed)


def transport_restart_policy(seed: int = 0) -> RestartPolicy:
    """Slow first backoff for transport chaos: the SIGKILLed shard
    stays down well past ``dead_after_s``, so the health tracker
    deterministically declares it dead and the fleet publishes
    degraded snapshots before the restart recovers it."""
    return RestartPolicy(max_restarts=8, window_s=60.0,
                         backoff_base_s=1.0, backoff_factor=2.0,
                         backoff_cap_s=2.0, jitter_frac=0.1,
                         seed=seed)


def transport_health_policy() -> HealthPolicy:
    """Grace periods matched to :func:`transport_restart_policy`:
    a killed shard (>=1s down) sails past ``dead_after_s``."""
    return HealthPolicy(stale_after_s=0.15, dead_after_s=0.3)


def transport_failpoints(plan: FleetChaosPlan) -> tuple[str, str]:
    """The plan's network faults as ``REPRO_FAILPOINTS`` spec strings
    — ``(parent_side, worker_side)``.  Parent-side faults mangle the
    receive path (dropped/garbled chunks, connection resets); the
    worker side stalls heartbeats."""
    parent = []
    if plan.net_drop > 0:
        parent.append(f"transport.recv.drop:drop@{plan.net_drop}")
    if plan.net_garble > 0:
        parent.append(
            f"transport.recv.garble:garble@{plan.net_garble}")
    if plan.net_resets > 0:
        parent.append(
            f"transport.conn.reset:drop@0.2x{plan.net_resets}")
    worker = []
    if plan.stall_heartbeats > 0:
        worker.append(
            f"transport.heartbeat:drop@{plan.stall_heartbeats}")
    return ",".join(parent), ",".join(worker)


def _shard_event_total(specs: Sequence[TenantSpec]) -> int:
    total = 0
    for spec in specs:
        with open_trace(spec.trace) as trace:
            total += trace.data_records
    return total


def _survivor_digests(snapshot: FleetSnapshot,
                      victims: Sequence[int]) -> list[dict]:
    return [t.to_dict() for t in snapshot.tenants
            if t.shard_id not in victims]


def run_fleet_chaos(tenants: Sequence[TenantSpec],
                    workdir: Union[str, Path],
                    plan: FleetChaosPlan,
                    config: Optional[FleetConfig] = None,
                    restart_policy: Optional[RestartPolicy] = None,
                    health: Optional[HealthPolicy] = None,
                    on_merge: Optional[Callable[[FleetSnapshot],
                                                None]] = None,
                    aggregator: Optional[FleetAggregator] = None
                    ) -> FleetChaosReport:
    """Execute one seeded fleet chaos experiment.

    Baseline: an uninterrupted in-process :class:`FleetService`
    (stateless — no checkpoints) over the same tenants and ring.
    Chaos run: real worker processes with per-tenant durability under
    ``workdir``, the planned victims SIGKILLed mid-replay and
    supervised back to completion.  Both fleets' final snapshots are
    compared on their diagnosis content.

    With ``plan.transport`` the chaos run's socket fan-in suffers the
    plan's network faults; ``on_merge`` observes every rolling
    snapshot and ``aggregator`` lets a caller (the CLI's metrics
    exporter) hold the live aggregation state.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config = config or FleetConfig()
    report = FleetChaosReport(plan=plan)

    ring = HashRing(config.shards, config.vnodes)
    fleet_plan = ring.assign(tenants)
    report.shards = config.shards
    report.tenants = sum(len(s) for s in fleet_plan.values())

    # --- baseline: in-process, stateless, uninterrupted --------------
    baseline_config = replace(config, workdir=None)
    baseline = FleetService(baseline_config, list(tenants))
    baseline_final = baseline.run()
    report.baseline_digest = baseline_final.diagnosis_digest()

    # --- choose victims (seeded) and their deterministic kill points -
    rng = random.Random(plan.seed)
    candidates = sorted(shard_id
                        for shard_id, specs in fleet_plan.items()
                        if specs)
    victims = sorted(rng.sample(
        candidates, min(max(0, plan.kills), len(candidates))))
    report.victims = victims
    hang_at = {}
    for victim in victims:
        total = _shard_event_total(fleet_plan[victim])
        hang_at[victim] = max(1, int(total * plan.kill_event_frac))

    # --- chaos run: real processes, real SIGKILL, real resume --------
    state_dir = workdir / "state"
    chaos_config = replace(config, workdir=str(state_dir))
    corrupt_done = {"done": False}

    def on_crash(shard_id: int, _record) -> None:
        report.kills_delivered += 1
        if not plan.corrupt_checkpoint or corrupt_done["done"]:
            return
        specs = fleet_plan[shard_id]
        if not specs:
            return
        ckpt_dir = tenant_checkpoint_dir(
            shard_workdir(state_dir, shard_id), specs[0].tenant)
        manager = CheckpointManager(ckpt_dir,
                                    config.policy.checkpoint_policy())
        damaged = corrupt_newest_checkpoint(
            manager, random.Random(plan.seed ^ 0x5EED),
            truncate=plan.truncate_checkpoint)
        if damaged is not None:
            report.checkpoints_corrupted += 1
        corrupt_done["done"] = True

    if plan.transport:
        parent_faults, worker_faults = transport_failpoints(plan)
        health = health or transport_health_policy()
        restart_policy = restart_policy \
            or transport_restart_policy(plan.seed)
    else:
        parent_faults = worker_faults = ""
        restart_policy = restart_policy \
            or default_restart_policy(plan.seed)
    failpoints.configure(parent_faults, seed=plan.seed)
    try:
        outcome = run_fleet_streaming(
            chaos_config, fleet_plan, str(workdir / "reports"),
            health=health, hang_at=hang_at, policy=restart_policy,
            on_crash=on_crash, on_merge=on_merge, merge_every_s=0.05,
            worker_failpoints=worker_faults, failpoint_seed=plan.seed,
            aggregator=aggregator)
    finally:
        failpoints.clear()
    recovered_final = outcome.final
    report.degraded_snapshots = outcome.degraded_snapshots
    report.recovered = not recovered_final.degraded
    report.transport_stats = dict(outcome.transport)
    report.restarts = sum(r.restarts for r in outcome.results.values())
    report.recovered_digest = recovered_final.diagnosis_digest()
    report.equal = recovered_final.diagnosis_json() \
        == baseline_final.diagnosis_json()
    report.survivors_clean = \
        _survivor_digests(recovered_final, victims) \
        == _survivor_digests(baseline_final, victims)
    return report


__all__ = [
    "FleetChaosPlan",
    "FleetChaosReport",
    "default_restart_policy",
    "transport_restart_policy",
    "transport_health_policy",
    "transport_failpoints",
    "run_fleet_chaos",
]
