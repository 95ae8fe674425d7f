"""Seeded chaos: kill, damage, resume — and prove nothing was lost.

One recovery contract, at two scales:

    *resume from the newest valid checkpoint + the remaining stream
    produces a final diagnosis bit-equal to an uninterrupted run.*

:func:`run_chaos` (``repro chaos``) proves it for one live pipeline
over a seeded, perturbed stream (duplicated deliveries, bounded
reordering, an optional mid-record trace-truncation probe).
:func:`run_fleet_chaos` (``repro fleet chaos``) proves it for real
shard worker processes, run the way ``repro fleet serve`` runs them:
tenants on surviving shards must come out untouched, and with
``transport`` the socket fan-in also suffers seeded network faults and
the fleet must go degraded, then recover.  Each harness has its own
frozen plan; they share the seed, the checkpoint damage, one kill rule
and one :class:`ChaosReport`.

**The kill rule.**  A victim stops at an exact consumed-event count
and is never finalized (a victim resumed past its point stops at its
next event):

* one pipeline: ``replayer.step(kill_at - replayer.published)``, then the
  replayer is dropped;
* a fleet: a shard worker that reaches its ``kill_at`` writes its kill
  flag and SIGKILLs itself (:func:`repro.fleet.worker.worker_main`).
  The flag outlives the process, so the restarted attempt runs
  through.

Between a kill and the resume the plan may flip one byte of, or
truncate, the newest checkpoint; the resume must fall back past it.
Every choice derives from the seed, so the same plan reaches the same
verdict every time.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from repro.core import failpoints
from repro.fleet.aggregator import FleetAggregator, FleetSnapshot, \
    HealthPolicy
from repro.fleet.service import FleetConfig, FleetService
from repro.fleet.sharding import HashRing, TenantSpec, shard_workdir, \
    tenant_checkpoint_dir
from repro.fleet.transport import run_fleet_streaming
from repro.live.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    TraceReplayer,
    resume_or_create,
)
from repro.live.pipeline import LivePipeline, PipelineConfig
from repro.live.supervisor import RestartPolicy
from repro.traces import (
    TraceEvent,
    TraceTruncated,
    open_trace,
    read_header,
    trace_events,
)

PathLike = Union[str, Path]


@dataclass(frozen=True)
class _Plan:
    """What both harnesses' plans carry: the seed, and the damage done
    to the newest checkpoint between a kill and its resume."""

    seed: int = 0
    #: flip one byte of the newest checkpoint after a kill
    corrupt_checkpoint: bool = False
    #: truncate (instead of bit-flip) it
    truncate_checkpoint: bool = False

    def damage_newest(self, manager: CheckpointManager,
                      rng: random.Random) -> Optional[Path]:
        """Damage ``manager``'s newest snapshot as planned: chop it
        mid-document (a torn write) or flip one byte (bit rot).
        Returns the damaged path, or None when the plan damages nothing
        or no snapshot exists yet."""
        paths = manager.snapshot_paths()
        if not paths or not (self.corrupt_checkpoint
                             or self.truncate_checkpoint):
            return None
        path = paths[-1]
        data = bytearray(path.read_bytes())
        if self.truncate_checkpoint:
            del data[max(1, len(data) // 2):]
        elif data:
            data[rng.randrange(len(data))] ^= 0xFF
        path.write_bytes(bytes(data))
        return path


@dataclass(frozen=True)
class ChaosPlan(_Plan):
    """One single-pipeline experiment.  ``kill_points`` are 1-based
    cumulative published-event counts at which the replay dies (each
    once, in ascending order)."""

    kill_points: tuple[int, ...] = ()
    #: deliver every k-th data event twice (0 disables)
    duplicate_every: int = 0
    #: shuffle events inside a sliding window this wide (<=1 disables)
    reorder_window: int = 0
    #: also probe mid-record trace truncation detection/resume
    probe_truncation: bool = False


@dataclass(frozen=True)
class FleetChaosPlan(_Plan):
    """One fleet experiment: how many shard workers die, where in
    their streams, and (with ``transport``) the network's faults."""

    #: shard workers to kill (chosen seeded among non-empty shards)
    kills: int = 1
    #: where in a victim shard's stream its kill lands (fraction of
    #: its total event count)
    kill_event_frac: float = 0.5
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


def _digest(document: str) -> str:
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


@dataclass
class ChaosReport:
    """What one experiment found: the digests of the uninterrupted and
    the recovered run's canonical diagnosis, whether the two are
    ``equal``, the named ``checks`` a pass needs besides, and
    ``counts`` of what happened on the way."""

    plan: _Plan
    baseline_digest: str
    recovered_digest: str
    equal: bool
    checks: dict[str, bool]
    counts: dict

    @classmethod
    def compare(cls, plan: _Plan, baseline: str, recovered: str,
                checks: dict[str, bool], counts: dict) -> "ChaosReport":
        """The report over two canonical diagnosis documents."""
        return cls(plan, _digest(baseline), _digest(recovered),
                   recovered == baseline, checks, counts)

    @property
    def passed(self) -> bool:
        return self.equal and all(self.checks.values())

    def to_dict(self) -> dict:
        """One flat document: the plan, the counts, the digests and
        every check."""
        return {**asdict(self.plan), **self.counts,
                "baseline_digest": self.baseline_digest,
                "recovered_digest": self.recovered_digest,
                "equal": self.equal, **self.checks,
                "passed": self.passed}

    def summary_line(self) -> str:
        """The verdict, the seed, every integer count, the victim
        shards and every check.  Kills survived are shown against the
        planned kill points, so a kill that never fired is visible."""
        shown = {"seed": self.plan.seed,
                 **{name: value for name, value in self.counts.items()
                    if isinstance(value, int) or name == "victims"},
                 "bit-equal": self.equal, **self.checks}
        if isinstance(self.plan, ChaosPlan):
            shown["kills_survived"] = (f"{shown['kills_survived']}/"
                                       f"{len(self.plan.kill_points)}")
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] " + " ".join(
            f"{name.replace('_', '-')}={str(value).lower()}"
            for name, value in shown.items())


def _data_records(path: PathLike) -> int:
    with open_trace(path) as trace:
        return trace.data_records


# ----------------------------------------------------------------------
# one pipeline: a seeded, perturbed stream killed at planned points
# ----------------------------------------------------------------------
def perturbed_events(path: PathLike, plan: ChaosPlan,
                     on_error=None) -> Iterator[TraceEvent]:
    """The merged data stream with the plan's seeded perturbations.

    Duplication and reordering are a pure function of ``plan.seed``
    and the event sequence, so re-creating this generator replays the
    *identical* perturbed stream — that is what lets a resumed run
    replay ``replayer.published`` events and land exactly where the
    killed one stopped.
    """
    events: Iterable[TraceEvent] = trace_events(path, on_error)
    if plan.duplicate_every > 1:
        events = _duplicated(events, plan.duplicate_every)
    if plan.reorder_window > 1:
        events = _reordered(events, plan.reorder_window,
                            random.Random(plan.seed))
    return iter(events)


def _duplicated(events: Iterable[TraceEvent],
                every: int) -> Iterator[TraceEvent]:
    for count, event in enumerate(events, start=1):
        yield event
        if count % every == 0:
            yield event


def _reordered(events: Iterable[TraceEvent], window: int,
               rng: random.Random) -> Iterator[TraceEvent]:
    buffer: list[TraceEvent] = []
    for event in events:
        buffer.append(event)
        if len(buffer) >= window:
            yield buffer.pop(rng.randrange(len(buffer)))
    while buffer:
        yield buffer.pop(rng.randrange(len(buffer)))


def derive_kill_points(trace_path: PathLike, plan_seed: int,
                       kills: int,
                       duplicate_every: int = 0) -> tuple[int, ...]:
    """Spread ``kills`` seeded kill points over the stream's length
    (``repro chaos --kills N`` when no explicit points are given)."""
    total = _data_records(trace_path)
    if duplicate_every > 1:
        total += total // duplicate_every
    if total <= 1 or kills <= 0:
        return ()
    population = range(1, total)
    return tuple(sorted(random.Random(plan_seed).sample(
        population, min(kills, len(population)))))


def probe_trace_truncation(trace_path: PathLike,
                           workdir: PathLike) -> dict:
    """Cut the trace mid-way through its final record and verify the
    reader (a) detects the partial record, (b) reports the byte it
    starts at, and (c) that a run checkpointed at the end of the intact
    prefix resumes from that checkpoint — not cold — once the writer
    completes the file, reads only the events past it and reaches the
    final diagnosis of an uninterrupted replay of the completed file.

    The completed record may sort into the middle of the merged
    stream; the checkpoint still verifies, because it holds counters
    only and the resume rebuilds everything else from the completed
    file's own prefix."""
    data = Path(trace_path).read_bytes()
    body = data.rstrip(b"\n")
    last_start = body.rfind(b"\n") + 1
    cut = last_start + max(1, (len(body) - last_start) // 2)
    copy = Path(workdir) / "truncated-trace.jsonl"
    copy.write_bytes(data[:cut])

    resume_offset = None
    try:
        open_trace(copy).close()
    except TraceTruncated as error:
        resume_offset = error.byte_offset
    header = read_header(copy)
    manager = CheckpointManager(Path(workdir) / "truncation-checkpoints")
    # a lenient reader delivers the intact prefix; checkpoint its end
    cut_run, _ = resume_or_create(
        header, manager,
        lambda _pipeline: trace_events(copy, on_error=lambda *_: None))
    cut_run.run(finish=False)
    cut_run.checkpoint()
    # the writer finishes the file; resume against it
    copy.write_bytes(data)
    resumed, from_checkpoint = resume_or_create(
        header, manager, lambda _pipeline: trace_events(copy))
    resumed_at = resumed.published
    after = 0
    while not resumed.done:
        after += resumed.step()
    expected, _ = resume_or_create(
        header, None, lambda _pipeline: trace_events(copy))
    return {
        "detected": resume_offset is not None,
        "cut_at": cut,
        "resume_offset": resume_offset,
        "offset_correct": resume_offset == last_start,
        "events_before_cut": cut_run.published,
        "events_after_resume": after,
        "resumed_ok": resume_offset == last_start and from_checkpoint
        and resumed_at == cut_run.published
        and resumed_at + after == _data_records(copy)
        and resumed.finalize().canonical_json()
        == expected.run().canonical_json(),
    }


def run_chaos(trace_path: PathLike, workdir: PathLike, plan: ChaosPlan,
              config: Optional[PipelineConfig] = None,
              policy: Optional[CheckpointPolicy] = None) -> ChaosReport:
    """Run the plan's perturbed stream once uninterrupted and once
    through every kill, damage and resume; compare the two final
    snapshots byte for byte.

    ``workdir`` receives the checkpoint directory (``checkpoints/``)
    and any probe fixtures; reusing a dirty workdir is an error the
    caller owns (the CLI always hands a fresh one).  The default config
    snapshots often, so kills land between emissions and checkpoints
    carry snapshot state.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config = config or PipelineConfig(snapshot_every=32)
    policy = policy or CheckpointPolicy(interval_events=64)
    header = read_header(trace_path)
    baseline = LivePipeline.from_header(header, config=config)
    expected = TraceReplayer(
        baseline, perturbed_events(trace_path, plan)).run()

    manager = CheckpointManager(workdir / "checkpoints", policy)
    damage_rng = random.Random(plan.seed ^ 0x5EED)
    pending = sorted(k for k in set(plan.kill_points) if k > 0)
    kill_log: list[dict] = []
    cold_starts = 0
    final = None
    while final is None:
        replayer, resumed = resume_or_create(
            header, manager, lambda _pipeline: perturbed_events(
                trace_path, plan), config=config)
        if kill_log:
            kill_log[-1]["resumed_from"] = replayer.published
            cold_starts += not resumed
        if pending:
            # a cursor already past the point (a reused workdir) dies at
            # its next event, as a fleet worker's ``>= kill_at`` does
            replayer.step(max(1, pending[0] - replayer.published))
            if not replayer.exhausted:
                # the kill: the replayer is dropped, never finalized
                pending.pop(0)
                damaged = plan.damage_newest(manager, damage_rng)
                kill_log.append({
                    "kill_at": replayer.published, "resumed_from": None,
                    "damaged": damaged.name if damaged else None})
                continue
        final = replayer.run()

    truncation = probe_trace_truncation(trace_path, workdir) \
        if plan.probe_truncation else None
    checks = {} if truncation is None else {
        "truncation_ok": truncation["detected"]
        and truncation["resumed_ok"]}
    return ChaosReport.compare(
        plan, expected.canonical_json(), final.canonical_json(), checks,
        {"events_total": baseline.counters()["published"],
         "kills_survived": len(kill_log),
         "resumes": len(kill_log),
         "resumes_from_scratch": cold_starts,
         "checkpoints_written": manager.written,
         "checkpoints_corrupted": sum(entry["damaged"] is not None
                                      for entry in kill_log),
         "corrupt_skipped": manager.corrupt_skipped,
         "fallbacks": manager.fallbacks,
         "truncation": truncation,
         "kill_log": kill_log})


# ----------------------------------------------------------------------
# a fleet: shard worker processes killed, supervised back
# ----------------------------------------------------------------------
def default_restart_policy(seed: int = 0) -> RestartPolicy:
    """Fast, bounded backoff: chaos experiments restart quickly but a
    deterministically-dying shard still trips the breaker."""
    return RestartPolicy(max_restarts=8, window_s=60.0,
                         backoff_base_s=0.05, backoff_factor=2.0,
                         backoff_cap_s=0.5, jitter_frac=0.1,
                         seed=seed)


def transport_restart_policy(seed: int = 0) -> RestartPolicy:
    """Slow first backoff for transport chaos: the killed shard stays
    down well past ``dead_after_s``, so the health tracker
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


def _survivors(snapshot: FleetSnapshot,
               victims: Sequence[int]) -> list[dict]:
    return [t.to_dict() for t in snapshot.tenants
            if t.shard_id not in victims]


def run_fleet_chaos(tenants: Sequence[TenantSpec],
                    workdir: PathLike,
                    plan: FleetChaosPlan,
                    config: Optional[FleetConfig] = None,
                    restart_policy: Optional[RestartPolicy] = None,
                    health: Optional[HealthPolicy] = None,
                    on_merge: Optional[Callable[[FleetSnapshot],
                                                None]] = None,
                    aggregator: Optional[FleetAggregator] = None
                    ) -> ChaosReport:
    """Kill the plan's victims mid-replay and compare the supervised
    fleet's final diagnosis with an uninterrupted one.

    The baseline is the in-process reference :class:`FleetService`
    (stateless, no checkpoints) over the same tenants and ring.  The
    chaos run is :func:`run_fleet_streaming` with per-tenant durability
    under ``workdir``: its final fan-in reads the atomic report files,
    so no streamed fault can reach the verdict.  With
    ``plan.transport`` the fan-in suffers the plan's network faults;
    ``on_merge`` observes every rolling snapshot and ``aggregator``
    lets a caller (the CLI's metrics exporter) hold the live
    aggregation state.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config = config or FleetConfig()
    shards = HashRing(config.shards, config.vnodes).assign(tenants)
    expected = FleetService(replace(config, workdir=None),
                            list(tenants)).run()

    candidates = sorted(shard for shard, specs in shards.items()
                        if specs)
    victims = sorted(random.Random(plan.seed).sample(
        candidates, min(max(0, plan.kills), len(candidates))))
    kill_at = {victim: max(1, int(plan.kill_event_frac * sum(
        _data_records(spec.trace) for spec in shards[victim])))
        for victim in victims}

    state_dir = workdir / "state"
    crashes: list[int] = []
    damaged: list[Path] = []

    def on_crash(shard_id: int, _record) -> None:
        crashes.append(shard_id)
        # one victim tenant's newest checkpoint, damaged once: only the
        # first victim's supervising thread ever passes this test
        if shard_id not in victims[:1] or crashes.count(shard_id) > 1:
            return
        manager = CheckpointManager(
            tenant_checkpoint_dir(shard_workdir(state_dir, shard_id),
                                  shards[shard_id][0].tenant),
            config.policy.checkpoint_policy())
        path = plan.damage_newest(manager,
                                  random.Random(plan.seed ^ 0x5EED))
        if path is not None:
            damaged.append(path)

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
            replace(config, workdir=str(state_dir)), shards,
            str(workdir / "reports"), health=health, kill_at=kill_at,
            policy=restart_policy, on_crash=on_crash, on_merge=on_merge,
            merge_every_s=0.05, worker_failpoints=worker_faults,
            failpoint_seed=plan.seed, aggregator=aggregator)
    finally:
        failpoints.clear()
    final = outcome.final
    return ChaosReport.compare(
        plan, expected.diagnosis_json(), final.diagnosis_json(),
        {"survivors_clean": _survivors(final, victims)
         == _survivors(expected, victims),
         "every_victim_killed": len(crashes) >= len(victims),
         "recovered": not final.degraded},
        {"shards": config.shards,
         "tenants": sum(len(specs) for specs in shards.values()),
         "victims": victims,
         "kills_delivered": len(crashes),
         "restarts": sum(r.restarts for r in outcome.results.values()),
         "checkpoints_corrupted": len(damaged),
         "degraded_snapshots": outcome.degraded_snapshots,
         "transport_stats": dict(outcome.transport)})


__all__ = [
    "ChaosPlan",
    "FleetChaosPlan",
    "ChaosReport",
    "perturbed_events",
    "derive_kill_points",
    "probe_trace_truncation",
    "run_chaos",
    "default_restart_policy",
    "transport_restart_policy",
    "transport_health_policy",
    "transport_failpoints",
    "run_fleet_chaos",
]
