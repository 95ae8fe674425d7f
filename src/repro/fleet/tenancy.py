"""Per-tenant isolation: event budgets, quarantine, bounded buses.

A fleet's availability story is per-tenant: one collective emitting a
pathological event volume must degrade *its own* diagnosis, never its
shard-mates'.  Three mechanisms, all deterministic:

* **event budgets** — a tenant admits at most ``event_budget`` stream
  events; past that the replay still advances the cursor (so resume
  cursors stay correct) but events are shed before the pipeline.
  Admission depends only on the event's position in the tenant's
  stream, so an interrupted-and-resumed replay sheds exactly the same
  events as an uninterrupted one — the fleet recovery contract holds
  under budgets too;
* **quarantine** — a budget-exhausted tenant is flagged
  (``budget_exhausted``) and surfaced in every fleet snapshot and the
  ``/metrics`` export; its pipeline keeps serving whatever was
  admitted;
* **bounded buses** — each tenant pipeline keeps its own bounded
  :class:`~repro.live.bus.EventBus`; a noisy tenant can fill only its
  own queue.

Degradation (missing switch telemetry) stays per-tenant as well: each
pipeline owns a :class:`~repro.live.robustness.DegradationTracker`,
and its ``degraded``/``confidence`` land in the tenant's digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.live.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    TraceReplayer,
    resume_or_create,
)
from repro.live.pipeline import DiagnosisSnapshot, PipelineConfig
from repro.traces import trace_events
from repro.traces.stream import TraceEvent, read_header


@dataclass
class TenantPolicy:
    """Isolation knobs applied to every tenant of a fleet."""

    #: stream events a tenant may admit; 0 = unlimited
    event_budget: int = 0
    #: per-tenant bus bound (events); <= 0 = unbounded
    bus_capacity: int = 4096
    #: rolling-snapshot cadence of each tenant pipeline
    snapshot_every: int = 32
    #: checkpoint cadence in published events (0 disables durability)
    checkpoint_every: int = 64
    #: checkpoint snapshots retained per tenant
    checkpoint_retain: int = 3

    def pipeline_config(self) -> PipelineConfig:
        return PipelineConfig(queue_capacity=self.bus_capacity,
                              snapshot_every=self.snapshot_every)

    def checkpoint_policy(self) -> CheckpointPolicy:
        return CheckpointPolicy(
            interval_events=max(1, self.checkpoint_every),
            max_unflushed_events=max(256, 4 * self.checkpoint_every),
            retain=self.checkpoint_retain)

    def to_dict(self) -> dict:
        return {
            "event_budget": self.event_budget,
            "bus_capacity": self.bus_capacity,
            "snapshot_every": self.snapshot_every,
            "checkpoint_every": self.checkpoint_every,
            "checkpoint_retain": self.checkpoint_retain,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TenantPolicy":
        return cls(**{key: int(data[key]) for key in (
            "event_budget", "bus_capacity", "snapshot_every",
            "checkpoint_every", "checkpoint_retain")})


class TenantRuntime:
    """One tenant's replay: pipeline + cursor + budget + checkpoints.

    ``events`` defaults to the tenant's trace stream resumed at the
    checkpoint cursor; in-memory fleets (the benchmark) inject a
    pre-decoded event list instead.
    """

    def __init__(self, tenant: str, shard_id: int,
                 policy: TenantPolicy,
                 trace: Optional[str] = None,
                 checkpoint_dir: Optional[str] = None,
                 events: Optional[Iterator[TraceEvent]] = None,
                 header=None) -> None:
        self.tenant = tenant
        self.shard_id = shard_id
        self.policy = policy
        self.trace = trace
        if header is None:
            if trace is None:
                raise ValueError(
                    f"tenant {tenant!r} needs a trace or a header")
            header = read_header(trace)
        self.header = header

        manager = None
        if checkpoint_dir is not None and policy.checkpoint_every > 0:
            manager = CheckpointManager(checkpoint_dir,
                                        policy.checkpoint_policy())
        self.manager = manager
        pipeline, cursor, self.resumed = resume_or_create(
            header, manager, config=policy.pipeline_config())
        self.pipeline = pipeline

        if events is None:
            if trace is None:
                raise ValueError(
                    f"tenant {tenant!r} needs a trace or an event "
                    f"iterator")
            events = trace_events(
                trace, on_error=self._quarantine_line,
                cursor=cursor)
        self.replayer = TraceReplayer(
            pipeline, events, manager, cursor, admit=self._admit)
        self.final: Optional[DiagnosisSnapshot] = None

    # ------------------------------------------------------------------
    def _quarantine_line(self, line_no: int, reason: str,
                         snippet: str) -> None:
        self.pipeline.quarantine.admit(line_no, reason, snippet)

    def _admit(self, published: int, _event: TraceEvent) -> bool:
        budget = self.policy.event_budget
        return budget <= 0 or published <= budget

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.final is not None or self.replayer.done

    @property
    def events_admitted(self) -> int:
        budget = self.policy.event_budget
        published = self.replayer.cursor.published
        return published if budget <= 0 else min(published, budget)

    @property
    def events_shed(self) -> int:
        return self.replayer.cursor.published - self.events_admitted

    @property
    def budget_exhausted(self) -> bool:
        budget = self.policy.event_budget
        return budget > 0 and self.replayer.cursor.published >= budget

    def watermark_ns(self) -> float:
        return self.pipeline.watermark.watermark

    def latest_snapshot(self) -> DiagnosisSnapshot:
        """The freshest diagnosis available without finishing: the
        final snapshot if finalized, else the last rolling snapshot,
        else one made on demand — outside the snapshot sequence, so a
        rolling report never changes what the tenant emits later."""
        if self.final is not None:
            return self.final
        if self.pipeline.snapshots:
            return self.pipeline.snapshots[-1]
        return self.pipeline.peek_snapshot()

    # ------------------------------------------------------------------
    def step(self, max_events: int) -> int:
        """Advance this tenant's replay by up to ``max_events``."""
        if self.done:
            return 0
        consumed = self.replayer.step(max_events)
        if self.replayer.exhausted:
            # held until the shard finalizes, and only the final
            # snapshot is still to come: give the fold state back (a
            # shard holds hundreds of these); that snapshot refolds
            self.pipeline.kernel.drop_derived()
        return consumed

    def finalize(self) -> DiagnosisSnapshot:
        """Flush the final checkpoint and emit the final snapshot
        (idempotent)."""
        if self.final is None:
            self.final = self.replayer.finalize()
        return self.final


__all__ = ["TenantPolicy", "TenantRuntime"]
