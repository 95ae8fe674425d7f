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

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from repro.live.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    TraceReplayer,
    resume_or_create,
)
from repro.live.pipeline import DiagnosisSnapshot, PipelineConfig
from repro.traces import (ColumnarTrace, TraceEvent, open_trace,
                          read_header)


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


def _budget_gate(budget: int
                 ) -> Optional[Callable[[int, TraceEvent], bool]]:
    """The replayer's admission gate for an event budget (None, no gate
    at all, when the budget is unlimited): the first ``budget`` stream
    positions are admitted, the rest shed."""
    if budget <= 0:
        return None

    def admit(published: int, _event: TraceEvent) -> bool:
        return published <= budget

    return admit


def _replay(reader: Callable[[], ColumnarTrace]
            ) -> Iterator[TraceEvent]:
    """The events of the trace ``reader()`` opens — on the first
    ``next``, so a stream that is never iterated holds no reader —
    closing it at the stream's end (or when the stream is dropped)."""
    with reader() as trace:
        yield from trace.iter_events()


class TenantRuntime:
    """One tenant's replay: pipeline + cursor + budget + checkpoints.

    ``events`` defaults to the tenant's trace stream, opened once for
    header, length and events; a resumed tenant replays its prefix
    (:func:`~repro.live.checkpoint.resume_or_create`).  In-memory
    fleets (the benchmark) inject a pre-decoded event list — the whole
    stream — or an iterator, whose length is unknown and which a resume
    cannot replay (so it takes no checkpoints).
    :attr:`remaining` is what a shard schedules by.

    Lifecycle: *streaming* until the :meth:`step` that finds the
    stream at its end, which takes the final snapshot while the fold
    state is warm and *holds* it; :meth:`finalize` — the shard's end —
    *publishes* it.  Until then :meth:`latest_snapshot` and
    :attr:`done` answer what they answered when the snapshot was still
    to be taken (docs/ARCHITECTURE.md §12 has why).
    """

    def __init__(self, tenant: str, shard_id: int,
                 policy: TenantPolicy,
                 trace: Optional[str] = None,
                 checkpoint_dir: Optional[str] = None,
                 events: Optional[Iterable[TraceEvent]] = None,
                 header=None) -> None:
        self.tenant = tenant
        self.shard_id = shard_id
        self.policy = policy
        self.trace = trace
        #: events in the whole stream; None when it is an iterator
        self.length: Optional[int] = None
        if events is None:
            if trace is None:
                raise ValueError(
                    f"tenant {tenant!r} needs a trace or an event "
                    f"iterator")
            # malformed lines are reported at open, before the
            # pipelines that quarantine them exist
            malformed: list[tuple] = []
            first = open_trace(
                trace, on_error=lambda *line: malformed.append(line))
            if header is None:
                header = first.header()
            self.length = first.data_records
            opened = [first]

            def stream(pipeline) -> Iterator[TraceEvent]:
                # the reader opened for the header feeds the first
                # stream iterated; a resume that rejects a checkpoint
                # drops that stream, and the next one opens its own
                def reader() -> ColumnarTrace:
                    if opened:
                        for line in malformed:
                            pipeline.quarantine.admit(*line)
                        return opened.pop()
                    return open_trace(
                        trace, on_error=pipeline.quarantine.admit)
                return _replay(reader)
        else:
            if header is None:
                if trace is None:
                    raise ValueError(
                        f"tenant {tenant!r} needs a trace or a header")
                header = read_header(trace)
            if isinstance(events, Sequence):
                self.length = len(events)

            def stream(_pipeline) -> Iterable[TraceEvent]:
                return events
        self.header = header

        manager = None
        if checkpoint_dir is not None and policy.checkpoint_every > 0:
            if self.length is None:
                # a resume replays the stream from its start, and a
                # rejected checkpoint replays it again
                raise ValueError(
                    f"tenant {tenant!r}: an event iterator cannot be "
                    f"replayed, so it cannot be checkpointed")
            manager = CheckpointManager(checkpoint_dir,
                                        policy.checkpoint_policy())
        self.manager = manager
        # the hooks handed down are no bound methods of this tenant:
        # one held by its own replayer would make the tenant a
        # reference cycle, freed only by the cycle collector
        self.replayer, self.resumed = resume_or_create(
            header, manager, stream, config=policy.pipeline_config(),
            admit=_budget_gate(policy.event_budget))
        self.pipeline = self.replayer.pipeline
        #: the final snapshot, once :meth:`finalize` has published it
        self.final: Optional[DiagnosisSnapshot] = None
        #: from stream end on: the final snapshot, taken and not yet
        #: published, and the one rolling reports answer until it is
        self._held: Optional[DiagnosisSnapshot] = None
        self._rolling: Optional[DiagnosisSnapshot] = None
        #: (cursor position, on-demand snapshot taken there) while the
        #: pipeline has emitted none
        self._peek: Optional[tuple[int, DiagnosisSnapshot]] = None

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.final is not None or self.replayer.done

    @property
    def remaining(self) -> Optional[int]:
        """Stream events still to consume; None for an iterator."""
        if self.length is None:
            return None
        return self.length - self.replayer.published

    @property
    def events_admitted(self) -> int:
        budget = self.policy.event_budget
        published = self.replayer.published
        return published if budget <= 0 else min(published, budget)

    @property
    def events_shed(self) -> int:
        return self.replayer.published - self.events_admitted

    @property
    def budget_exhausted(self) -> bool:
        budget = self.policy.event_budget
        return budget > 0 and self.replayer.published >= budget

    def watermark_ns(self) -> float:
        return self.pipeline.watermark.watermark

    def latest_snapshot(self) -> DiagnosisSnapshot:
        """The freshest *published* diagnosis: the final snapshot once
        :meth:`finalize` handed it out, else the last rolling snapshot,
        else one made on demand — outside the snapshot sequence, so a
        rolling report never changes what the tenant emits later — and
        made again only once the cursor has moved."""
        if self.final is not None:
            return self.final
        if self._rolling is not None:
            return self._rolling
        if self.pipeline.snapshots:
            return self.pipeline.snapshots[-1]
        published = self.replayer.published
        peek = self._peek
        if peek is None or peek[0] != published:
            peek = self._peek = (published, self.pipeline.peek_snapshot())
        return peek[1]

    # ------------------------------------------------------------------
    def step(self, max_events: int) -> int:
        """Advance this tenant's replay by up to ``max_events``; the
        call that finds the stream at its end also takes the final
        snapshot, while the fold state is warm."""
        if self.done:
            return 0
        consumed = self.replayer.step(max_events)
        if self.replayer.exhausted:
            self._finish()
        return consumed

    def _finish(self) -> DiagnosisSnapshot:
        """Final checkpoint, drain, one more incremental snapshot —
        taken now and held: what the tenant *publishes* changes only
        in :meth:`finalize`, when its shard ends."""
        self._rolling = self.latest_snapshot()
        self._peek = None
        self._held = self.replayer.finalize()
        # nothing will ask this pipeline for another snapshot
        self.pipeline.release()
        return self._held

    def finalize(self) -> DiagnosisSnapshot:
        """Publish the final snapshot (idempotent): the one held since
        the stream ended, or — for a caller that cuts a stream short —
        one taken now."""
        if self.final is None:
            self.final = self._held if self._held is not None \
                else self._finish()
        return self.final


__all__ = ["TenantPolicy", "TenantRuntime"]
