"""The online diagnosis pipeline: bus → watermark → graph → snapshot.

Wires the :class:`~repro.live.bus.EventBus` and the
:class:`~repro.live.watermark.WatermarkBuffer` into the
:class:`~repro.core.waiting_graph.WaitingGraph` and the
:class:`~repro.core.analyzer.DiagnosisKernel` the batch analyzer uses,
emitting rolling :class:`DiagnosisSnapshot`\\ s.

Equivalence contract (tested): on a clean, fully-delivered stream the
*final* snapshot's critical path, bottleneck steps, findings and
contributor scores equal the batch
:func:`~repro.traces.store.analyze_trace` result for the same data —
the pipeline is the paper's online analyzer, not an approximation of
it.  Every ``PRUNE_INTERVAL`` records the waiting graph drops the
records nothing waits on (in-degree zero), keeping only O(steps)
scalars (per-step windows, durations, slowest flows) for them.  In a
ring every record is waited on by a later step until the collective's
last steps arrive, so a stream keeps nearly all of its records until
it ends: the golden incast case prunes none of its 56 records, the
golden PFC-storm case 4 (``tests/live/test_pipeline.py`` pins both).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.core.units import Bytes, Nanoseconds
from repro.collective.primitives import StepSchedule
from repro.collective.runtime import StepRecord
from repro.core.analyzer import DiagnosisKernel, step_timing
from repro.core.diagnosis import DiagnosisResult
from repro.core.reports import (
    contributor_entry,
    critical_path_entry,
    finding_entry,
)
from repro.core.waiting_graph import CriticalPathEntry, WaitingGraph
from repro.live.bus import EventBus, TelemetryEvent
from repro.live.metrics import Histogram, MetricsRegistry
from repro.live.robustness import DegradationTracker, Quarantine
from repro.live.watermark import WatermarkBuffer
from repro.simnet.packet import FlowKey
from repro.simnet.telemetry import SwitchReport
from repro.simnet.units import MS
from repro.traces.stream import TraceEvent, TraceHeader


#: :meth:`LivePipeline.publish` pumps the bus once this many events
#: are queued, so the bus never holds more
PUMP_BATCH = 64
#: prune cadence of the waiting graph
PRUNE_INTERVAL = 16
#: contributors a snapshot's :meth:`DiagnosisSnapshot.to_dict` lists
TOP_CONTRIBUTORS = 5


@dataclass(slots=True)
class PipelineConfig:
    """Knobs of the live service."""

    #: emit a rolling snapshot every N ingested events (0 = final only)
    snapshot_every: int = 0


@dataclass
class DiagnosisSnapshot:
    """One rolling diagnosis emitted by the pipeline."""

    seq: int
    final: bool
    watermark_ns: Nanoseconds
    step_records_ingested: int
    switch_reports_ingested: int
    critical_path: list[CriticalPathEntry]
    bottleneck_steps: list[int]
    result: DiagnosisResult
    collective_scores: dict[FlowKey, float]
    #: 1.0 = full telemetry; lower = switch reports missing/stale
    confidence: float
    degraded: bool
    counters: dict = field(default_factory=dict)

    @property
    def detected_flows(self) -> set[FlowKey]:
        return self.result.detected_flows

    def top_contributors(self, n: int = 5) -> list[tuple[FlowKey, float]]:
        ranked = sorted(self.collective_scores.items(),
                        key=lambda kv: -kv[1])
        return ranked[:n]

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "final": self.final,
            "watermark_ns": self.watermark_ns,
            "step_records": self.step_records_ingested,
            "switch_reports": self.switch_reports_ingested,
            "confidence": self.confidence,
            "degraded": self.degraded,
            "critical_path": [critical_path_entry(e)
                              for e in self.critical_path],
            "bottleneck_steps": self.bottleneck_steps,
            "findings": [finding_entry(f)
                         for f in self.result.findings],
            "contributors": [contributor_entry(flow, score)
                             for flow, score
                             in self.top_contributors(TOP_CONTRIBUTORS)],
            "counters": self.counters,
        }

    def canonical_json(self) -> str:
        """Key-sorted JSON of :meth:`to_dict` — the byte-equality form
        the chaos harness (:mod:`repro.chaos`) digests."""
        import json

        return json.dumps(self.to_dict(), sort_keys=True)


def snapshot_line(entry: dict) -> str:
    """The one-line operator view of a snapshot in its
    :meth:`DiagnosisSnapshot.to_dict` form: what ``repro serve`` prints
    per snapshot and ``repro tail`` per snapshot-file line."""
    findings = ",".join(sorted({f["type"] for f in entry["findings"]})) \
        or "none"
    ranked = entry["contributors"]
    top = ranked[0]["flow"] if ranked and ranked[0]["score"] > 0 \
        else "-"
    tag = "FINAL" if entry["final"] else f"#{entry['seq']}"
    note = "" if entry["confidence"] >= 1.0 \
        else f" confidence={entry['confidence']:.2f}"
    return (f"[{tag}] wm={entry['watermark_ns'] / MS:.3f}ms "
            f"steps={entry['step_records']} "
            f"reports={entry['switch_reports']} "
            f"anomalies={findings} top={top}{note}")


class LivePipeline:
    """Streaming §III-D analyzer over a telemetry event stream."""

    def __init__(self, schedule: StepSchedule,
                 flow_keys: dict[tuple[str, int], FlowKey],
                 expected_step_times: dict[tuple[str, int], float],
                 pfc_xoff_bytes: Bytes,
                 config: Optional[PipelineConfig] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.schedule = schedule
        self.flow_keys = dict(flow_keys)
        self.expected_step_times = dict(expected_step_times)
        self.pfc_xoff_bytes = pfc_xoff_bytes
        self.config = config or PipelineConfig()
        self.clock = clock
        #: the collective flows and the flow keys they were built from:
        #: rebuilt only when those changed, so the kernel tells an
        #: unchanged set by identity
        self._collective = frozenset(self.flow_keys.values())
        self._collective_of = dict(self.flow_keys)

        self.bus = EventBus()
        self.watermark = WatermarkBuffer()
        self.graph = WaitingGraph(schedule, prune_interval=PRUNE_INTERVAL)
        self.quarantine = Quarantine()
        self.degradation = DegradationTracker(self._report_gap_ns())

        #: the §III-D tail; owns the switch reports ingested so far
        self.kernel = DiagnosisKernel(pfc_xoff_bytes,
                                      self.collective_flow_keys)
        self._dupes = 0
        self._seq = 0
        self._ingested = {"step_record": 0, "switch_report": 0}
        self._since_snapshot = 0
        #: events a pump took off the bus and has not processed yet
        self._in_flight = 0
        self._pending_arrivals: list[float] = []
        self._started_wall: Optional[float] = None
        self._snapshot_seq = 0
        #: set only by :meth:`fast_forwarding`
        self._fast_forward = False
        self.snapshots: list[DiagnosisSnapshot] = []
        self.on_snapshot: list[Callable[[DiagnosisSnapshot], None]] = []

        self.latency = Histogram(
            "live_ingest_to_snapshot_seconds",
            "wall time from event arrival on the bus to the snapshot "
            "that includes it")
        self.snapshot_cost = Histogram(
            "live_snapshot_build_seconds",
            "wall time to build one diagnosis snapshot")

    # ------------------------------------------------------------------
    @classmethod
    def from_header(cls, header: TraceHeader,
                    config: Optional[PipelineConfig] = None,
                    clock: Callable[[], float] = time.monotonic
                    ) -> "LivePipeline":
        return cls(header.schedule, header.flow_keys,
                   header.expected_step_times, header.pfc_xoff_bytes,
                   config=config, clock=clock)

    def _report_gap_ns(self) -> float:
        """Switch-report staleness before confidence degrades: 4x the
        largest expected step time."""
        expected = self.expected_step_times.values()
        largest = max(expected, default=0.0)
        return 4.0 * largest if largest > 0 else 1e7

    @property
    def collective_flow_keys(self) -> frozenset[FlowKey]:
        """The collective flows :attr:`flow_keys` names now (a live
        deployment learns its flow keys as it goes)."""
        if self.flow_keys != self._collective_of:
            self._collective = frozenset(self.flow_keys.values())
            self._collective_of = dict(self.flow_keys)
        return self._collective

    @property
    def reports(self) -> list[SwitchReport]:
        return self.kernel.reports

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def publish(self, event: TraceEvent) -> None:
        """Enqueue one decoded trace event onto the bus, and pump a
        batch off it once ``PUMP_BATCH`` events are queued: the one
        flow-control rule of the pipeline, which keeps the bus at most
        one batch deep whoever the producer is."""
        if self._started_wall is None:
            self._started_wall = self.clock()
        self._seq += 1
        bus = self.bus
        # a resume's replayed prefix is not measured
        arrival = None if self._fast_forward else self.clock()
        bus.publish(TelemetryEvent(event.kind, event.time, event.payload,
                                   self._seq, arrival))
        if len(bus) >= PUMP_BATCH:
            self.pump(PUMP_BATCH)

    def pump(self, limit: int = 0) -> int:
        """Consume up to ``limit`` events off the bus (all if 0).  An
        event behind the watermark is discarded, never ingested; a
        snapshot emitted part-way counts the rest of the batch as still
        on the bus, and an ingest that raises leaves it there."""
        batch = self.bus.drain(limit)
        self._in_flight = len(batch)
        admit = self.watermark.admit
        try:
            for event in batch:
                self._in_flight -= 1
                if admit(event):
                    self._ingest(event)
        finally:
            if self._in_flight:
                self.bus.requeue(batch[-self._in_flight:])
                self._in_flight = 0
        return len(batch)

    def _ingest(self, event: TelemetryEvent) -> None:
        if event.kind == "step_record":
            record: StepRecord = event.payload  # type: ignore[assignment]
            if (record.node, record.step_index) in self.graph.durations:
                self._dupes += 1
            self.graph.submit(record)
            self.degradation.observe_step(record.end_time)
            self._ingested["step_record"] += 1
        elif event.kind == "switch_report":
            report: SwitchReport = event.payload  # type: ignore[assignment]
            self.kernel.add_report(report)
            self.degradation.observe_report(report.time)
            self._ingested["switch_report"] += 1
        else:
            self.quarantine.admit(
                0, f"unroutable event kind {event.kind!r}")
            return
        if event.arrival is not None:
            self._pending_arrivals.append(event.arrival)
        self._since_snapshot += 1
        every = self.config.snapshot_every
        if every > 0 and self._since_snapshot >= every:
            if self._fast_forward:
                self._snapshot_seq += 1
                self._since_snapshot = 0
            else:
                self.emit_snapshot(final=False)

    # ------------------------------------------------------------------
    # diagnosis
    # ------------------------------------------------------------------
    def _diagnose(self, final: bool) -> DiagnosisSnapshot:
        """The §III-D analysis over everything ingested so far, as a
        snapshot numbered after the last one emitted."""
        timing = step_timing(
            self.graph,
            lambda key: self.expected_step_times.get(key, 0.0),
            self.flow_keys)
        breakdown = self.kernel.snapshot(
            self.collective_flow_keys, self.graph.windows, timing)
        return DiagnosisSnapshot(
            seq=self._snapshot_seq,
            final=final,
            watermark_ns=self.watermark.watermark,
            step_records_ingested=self._ingested["step_record"],
            switch_reports_ingested=self._ingested["switch_report"],
            critical_path=self.graph.critical_path(),
            bottleneck_steps=timing.bottleneck_steps,
            result=breakdown.result,
            collective_scores=breakdown.collective_scores,
            confidence=self.degradation.confidence(),
            degraded=self.degradation.degraded,
            counters=self.counters(),
        )

    def peek_snapshot(self) -> DiagnosisSnapshot:
        """A diagnosis on demand, between rolling snapshots: it is not
        counted, kept in :attr:`snapshots` or announced to
        :attr:`on_snapshot`, so every snapshot emitted afterwards is
        what it would have been without the look."""
        return self._diagnose(final=False)

    def emit_snapshot(self, final: bool = False) -> DiagnosisSnapshot:
        """Diagnose everything ingested so far and publish it as the
        next snapshot of the sequence."""
        build_start = self.clock()
        self._snapshot_seq += 1
        snapshot = self._diagnose(final)
        if final:
            self.kernel.drop_derived()
        now = self.clock()
        observe = self.latency.observe
        for arrival in self._pending_arrivals:
            observe(now - arrival if now > arrival else 0.0)
        self._pending_arrivals.clear()
        self.snapshot_cost.observe(max(0.0, now - build_start))
        self._since_snapshot = 0
        self.snapshots.append(snapshot)
        for callback in self.on_snapshot:
            callback(snapshot)
        return snapshot

    def finish(self) -> DiagnosisSnapshot:
        """Drain everything and emit the final snapshot."""
        self.pump()
        return self.emit_snapshot(final=True)

    def release(self) -> None:
        """After :meth:`finish` (bus and watermark are drained), give
        back what only another snapshot would read — the snapshots
        emitted so far, the switch reports and the kernel's fold state,
        the waiting graph's records, per-step scalars and schedule
        edges, the header's flow keys and expected step times — for an
        owner that keeps the finished pipeline around (a fleet shard
        holds hundreds until it ends).  Counters, histograms, the
        watermark and the degradation verdict stay readable."""
        self.snapshots.clear()
        self.kernel.release()
        self.graph.clear()
        self._collective = frozenset()
        self._collective_of = {}
        self.flow_keys = {}
        self.expected_step_times = {}

    # ------------------------------------------------------------------
    # checkpointing (crash-safe resume; see repro.live.checkpoint)
    # ------------------------------------------------------------------
    def checkpoint_counters(self) -> dict:
        """The five counters a checkpoint document holds: what
        replaying its stream prefix into a fresh pipeline must
        reproduce."""
        return {
            "seq": self._seq,
            "ingested": dict(self._ingested),
            "since_snapshot": self._since_snapshot,
            "snapshot_seq": self._snapshot_seq,
            "dupes": self._dupes,
        }

    def state_dict(self, published: int = 0) -> dict:
        """The checkpoint document: the cursor — ``published``, the
        stream events delivered so far — and
        :meth:`checkpoint_counters`.  Everything else a resume rebuilds
        by replaying the stream up to the cursor
        (:meth:`repro.live.checkpoint.TraceReplayer.fast_forward`)."""
        return {"cursor": {"published": published},
                **self.checkpoint_counters()}

    @contextmanager
    def fast_forwarding(self) -> Iterator[None]:
        """While a resume replays the checkpointed prefix into this
        fresh pipeline, a rolling snapshot that falls due is counted
        but not computed: the run being resumed already emitted it.
        Its events carry no arrival stamp, and afterwards the
        wall-clock bookkeeping restarts with this process."""
        self._fast_forward = True
        try:
            yield
        finally:
            self._fast_forward = False
        self._started_wall = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """Raw pipeline counters (embedded in every snapshot)."""
        stats = self.bus.stats
        graph = self.graph.stats()
        return {
            "published": stats.published,
            "consumed": stats.consumed - self._in_flight,
            "bus_depth": len(self.bus) + self._in_flight,
            "bus_high_watermark": stats.high_watermark,
            "late_discarded": self.watermark.late_discarded,
            "watermark_buffered": self.watermark.buffered,
            "quarantined": self.quarantine.count,
            "duplicates": self._dupes,
            "graph_retained": graph["retained"],
            "graph_pruned": graph["pruned_total"],
            "prune_efficiency": round(graph["prune_efficiency"], 4),
            "snapshots": self._snapshot_seq,
        }

    def build_metrics(self) -> MetricsRegistry:
        """A full metrics registry over the pipeline's current state."""
        registry = MetricsRegistry()
        stats = self.bus.stats
        graph = self.graph.stats()
        wall = (self.clock() - self._started_wall) \
            if self._started_wall is not None else 0.0
        total = sum(self._ingested.values())

        def counter(name, help, value, labels=None):
            registry.counter(name, help, labels=labels).inc(value)

        def gauge(name, help, value):
            registry.gauge(name, help).set(value)

        counter("live_events_published_total",
                "events offered to the bus", stats.published)
        counter("live_step_records_total",
                "step records ingested", self._ingested["step_record"])
        counter("live_switch_reports_total",
                "switch reports ingested",
                self._ingested["switch_report"])
        counter("live_late_discarded_total",
                "events that arrived behind the watermark",
                self.watermark.late_discarded)
        counter("live_quarantined_total",
                "malformed inputs quarantined", self.quarantine.count)
        for reason in sorted(self.quarantine.by_reason):
            counter("live_quarantined_by_reason_total",
                    "malformed inputs quarantined, by normalized reason",
                    self.quarantine.by_reason[reason],
                    {"reason": reason})
        counter("live_duplicate_records_total",
                "step records seen more than once", self._dupes)
        counter("live_snapshots_total",
                "diagnosis snapshots emitted", self._snapshot_seq)
        counter("live_graph_pruned_total",
                "waiting-graph records discarded by pruning",
                graph["pruned_total"])

        gauge("live_bus_depth", "events currently queued",
              len(self.bus) + self._in_flight)
        gauge("live_bus_high_watermark", "deepest the bus has been",
              stats.high_watermark)
        gauge("live_watermark_buffered", "events held for reordering",
              self.watermark.buffered)
        gauge("live_graph_retained",
              "waiting-graph records currently held", graph["retained"])
        gauge("live_prune_efficiency",
              "fraction of ingested records already pruned",
              round(graph["prune_efficiency"], 6))
        gauge("live_ingest_rate_per_sec", "ingested events / wall second",
              round(total / wall, 3) if wall > 0 else 0.0)
        gauge("live_confidence",
              "diagnosis confidence under telemetry loss",
              round(self.degradation.confidence(), 4))
        registry.attach(self.latency)
        registry.attach(self.snapshot_cost)
        return registry
