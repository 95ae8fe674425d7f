"""The centralized analyzer (§III-A, §III-D).

Consumes the host monitors' step records and the switches' telemetry
reports, then produces a structured diagnosis:

1. build the waiting graph, compute the critical path and the
   performance-bottleneck steps;
2. build per-step and overall network provenance graphs from the
   collected reports;
3. run the signature detectors for the anomaly breakdown;
4. rate contributor flows (Eqs. 1-3).

Steps 2-4 are :class:`DiagnosisKernel`, shared with the live pipeline:
a report is digested once on arrival and max-merged into the overall
graph and into each step graph whose window it falls in, a graph's
derived state (pause-victim edges, port-port weights, the detectors'
rows, evidence and findings) is patched where a merge moved it, and a
step's graph is rebuilt only when the slice of reports in its window
changed, so a rolling snapshot costs what changed since the last one.
The batch analyzer is the same waiting graph and the same kernel as
the live pipeline's, fed everything and asked for one snapshot.  Every
snapshot, batch or live, rates a step only when Eq. 3 weighs it: its
critical flow is known and it ran slower than expected.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import (Callable, Container, Iterable, Mapping, Optional,
                    Sequence)

from repro.core.units import Bytes
from repro.collective.runtime import CollectiveRuntime, StepRecord
from repro.core.diagnosis import DiagnosisResult, diagnose
from repro.core.provenance import (
    PreparedReport,
    ProvenanceAccumulator,
    ProvenanceGraph,
)
from repro.core.rating import score_row, step_excess
from repro.core.waiting_graph import CriticalPathEntry, WaitingGraph
from repro.simnet.packet import FlowKey
from repro.simnet.pfc import PortRef
from repro.simnet.telemetry import SwitchReport

_report_time = attrgetter("time")
#: contributors are scored in flow-name order
_flow_name = lru_cache(maxsize=1 << 16)(FlowKey.short)

#: multiple of the ideal step time above which a step counts as a
#: performance bottleneck — batch and live read this one value
SLOWDOWN_FACTOR = 1.5


@dataclass
class StepTiming:
    """What Eq. 3 needs to know about each step's critical flow."""

    #: duration of the critical flow's step (steps with a record only)
    exec_times: dict[int, float]
    expect_times: dict[int, float]
    #: cf_i — absent where the critical node's flow key is unknown
    critical_flow_keys: dict[int, FlowKey]
    #: steps slower than ``SLOWDOWN_FACTOR`` x expected, ascending
    bottleneck_steps: list[int]


def step_timing(graph: WaitingGraph,
                expected_of: Callable[[tuple[str, int]], float],
                flow_keys: Mapping[tuple[str, int], FlowKey]
                ) -> StepTiming:
    """Per-step timing of ``graph``'s critical flows."""
    timing = StepTiming({}, {}, {}, [])
    for idx, node in graph.critical_flows_by_step().items():
        timing.exec_times[idx] = graph.durations[(node, idx)]
        timing.expect_times[idx] = expected_of((node, idx))
        flow_key = flow_keys.get((node, idx))
        if flow_key is not None:
            timing.critical_flow_keys[idx] = flow_key
    timing.bottleneck_steps = sorted(
        idx for idx, t in timing.exec_times.items()
        if t > SLOWDOWN_FACTOR * timing.expect_times[idx])
    return timing


@dataclass
class Breakdown:
    """One :meth:`DiagnosisKernel.snapshot`."""

    provenance: ProvenanceGraph
    result: DiagnosisResult
    #: Eq. 3 score per non-collective flow
    collective_scores: dict[FlowKey, float] = field(default_factory=dict)
    #: non-zero Eq. 2 scores against cf_i per step with telemetry
    #: (None where Eq. 3 gives the step no weight)
    step_scores: dict[int, Optional[dict[FlowKey, float]]] = field(
        default_factory=dict)
    #: the graph of each rated step this snapshot built — every rated
    #: step with telemetry when nothing was cached, as in batch
    step_provenance: dict[int, ProvenanceGraph] = field(
        default_factory=dict)


class DiagnosisKernel:
    """Provenance -> signatures -> Eqs. 1-3 over a growing report list.

    Retained between snapshots: every report's prepared form, the
    overall merge state with its derived layer and the findings the
    detectors keep and, per step rated so far, its report slice, the
    graph over it with the Eq. 2 rows read from that graph so far, and
    the merge state while the slice still moves — so a settled step's
    graph stays until :meth:`drop_derived` or :meth:`release`, and the
    kernel grows with the steps it rated.  Everything here is derived
    from :attr:`reports`; :meth:`drop_derived` forgets it and the next
    snapshot digests them again.
    """

    def __init__(self, pfc_xoff_bytes: Bytes,
                 collective_flows: Iterable[FlowKey] = ()) -> None:
        self.pfc_xoff_bytes = pfc_xoff_bytes
        self.reports: list[SwitchReport] = []
        #: reports arrived in time order so far (windows are slices)
        self._ordered = True
        #: switch -> port -> its PortRef, shared by the prepared reports
        self._port_refs: dict[str, dict[int, PortRef]] = {}
        #: as of the last snapshot (each one names the current set; a
        #: frozenset given is kept as is, so the same one is told by
        #: identity)
        self._collective_flows = frozenset(collective_flows)
        self.drop_derived()

    def drop_derived(self) -> None:
        #: ``reports[:len(_prepared)]`` digested, all merged into
        #: ``_overall``
        self._prepared: list[PreparedReport] = []
        self._overall = ProvenanceAccumulator(
            self._collective_flows, self.pfc_xoff_bytes)
        #: step -> (report slice, graph, {cf: Eq. 2 row read so far},
        #: merge state — None once the slice settled)
        self._steps: dict[int, tuple] = {}
        #: (overall flow count, the non-collective flows in name order)
        #: as of the last snapshot: flows only grow, so an unchanged
        #: count is an unchanged set
        self._background: tuple[int, list[FlowKey]] = (-1, [])

    def release(self) -> None:
        """Let every report and everything derived from them go, for an
        owner that adds no report and takes no snapshot again (a held
        fleet tenant): either would raise."""
        self.reports.clear()
        self._collective_flows = frozenset()
        self._port_refs = {}
        self._prepared = []
        self._overall = None
        self._steps = {}

    def _digest(self, report: SwitchReport) -> None:
        prepared = PreparedReport(report, self._port_refs)
        self._prepared.append(prepared)
        self._overall.merge(prepared)

    def add_report(self, report: SwitchReport) -> None:
        reports = self.reports
        if reports and report.time < reports[-1].time:
            self._ordered = False
        if len(self._prepared) == len(reports):
            self._digest(report)
        reports.append(report)

    def provenance(self, collective_flows: set[FlowKey]
                   ) -> ProvenanceGraph:
        """The overall graph over every report so far."""
        if collective_flows is not self._collective_flows \
                and self._collective_flows != collective_flows:
            # a live deployment learns its flow keys as it goes
            self._collective_flows = frozenset(collective_flows)
            self.drop_derived()
        for report in self.reports[len(self._prepared):]:
            self._digest(report)
        return self._overall.snapshot()

    def snapshot(self, collective_flows: set[FlowKey],
                 windows: Mapping[int, Sequence[float]],
                 timing: StepTiming) -> Breakdown:
        """Diagnose everything reported so far.  ``windows`` maps each
        step to its ``(start, end)`` over all of its records."""
        overall = self.provenance(collective_flows)
        breakdown = Breakdown(overall, diagnose(overall))
        rows = breakdown.step_scores
        critical = timing.critical_flow_keys
        # Eq. 3 reads the row of a step it weighs and no other
        weights, _ = step_excess(critical, timing.exec_times,
                                 timing.expect_times)
        rated = {idx for idx, weight in weights.items() if weight > 0}
        self._score_steps(windows, critical, rated, rows,
                          breakdown.step_provenance)
        if not rows:        # no step saw telemetry: rate the whole run
            rows[0] = score_row(overall, critical[0]) \
                if 0 in rated else None
        excess, denominator = step_excess(rows, timing.exec_times,
                                          timing.expect_times)
        count, background = self._background
        if count != len(overall.flows):
            background = sorted(overall.background_flows(), key=_flow_name)
            self._background = (len(overall.flows), background)
        # Eq. 3 row by row: each flow gets its terms in step order, as
        # weigh_step_scores adds them; a flow a row lacks scores 0.0
        # there, a term that leaves its sum as it was
        scores = breakdown.collective_scores = dict.fromkeys(
            background, 0.0)
        if denominator > 0:
            for i, excess_i in excess.items():
                if excess_i <= 0 or i not in critical:
                    continue
                for flow, score in rows[i].items():
                    if flow in scores:
                        scores[flow] += score * excess_i / denominator
        return breakdown

    def _score_steps(self, windows: Mapping[int, Sequence[float]],
                     critical: Mapping[int, FlowKey],
                     rated: Container[int], rows: dict,
                     graphs: dict) -> None:
        """Fill ``rows`` for every step with telemetry in its window,
        and ``graphs`` with each graph built for a step in ``rated``.

        Reports arrive in time order, so a window is a slice of them.
        A step whose slice grew at the end merges in just the new
        reports and keeps its merge state for the next snapshot.  The
        first snapshot to find the slice unchanged lets the merge state
        go: from then on the step keeps its graph and the Eq. 2 rows
        read from it, keyed by critical flow — the critical path runs
        through a different node at nearly every snapshot, so a row is
        built the first time a snapshot reads it and looked up after.
        Anything else (a window widened backwards by a late record,
        reports out of time order) is rebuilt from the slice.

        A step not in ``rated`` gets a None row and its state is left
        as it was: a later snapshot that rates it catches up along the
        same three paths."""
        reports = self._prepared
        steps = self._steps
        for idx, (start, end) in windows.items():
            merged = None
            if self._ordered:
                low = bisect_left(reports, start, key=_report_time)
                high = bisect_right(reports, end, low, key=_report_time)
                if idx not in rated:
                    if low < high:
                        rows[idx] = None
                    continue
                span = (low, high)
                then, graph, read, merged = steps.get(
                    idx, (None, None, None, None))
                if then == span:
                    if merged is not None:
                        steps[idx] = (span, graph, read, None)
                    cf = critical[idx]
                    row = read.get(cf)
                    if row is None:
                        row = read[cf] = score_row(graph, cf)
                    rows[idx] = row
                    continue
                if merged is not None and then[0] == low:
                    low = then[1]           # merge in the new tail only
                else:
                    merged = None
                step_reports = reports[low:high]
            else:
                span = None
                step_reports = [r for r in reports
                                if start <= r.time <= end]
                if idx not in rated:
                    if step_reports:
                        rows[idx] = None
                    continue
            if merged is None:
                if not step_reports:
                    continue
                merged = ProvenanceAccumulator(
                    self._collective_flows, self.pfc_xoff_bytes)
            for report in step_reports:
                merged.merge(report)
            graph = merged.snapshot()
            cf = critical[idx]
            row = rows[idx] = score_row(graph, cf)
            if span is not None:
                steps[idx] = (span, graph, {cf: row}, merged)
            graphs[idx] = graph


@dataclass
class VedrfolnirDiagnosis:
    """The analyzer's structured output."""

    waiting_graph: WaitingGraph
    critical_path: list[CriticalPathEntry]
    #: steps whose critical flow ran slower than SLOWDOWN_FACTOR x ideal
    bottleneck_steps: list[int]
    provenance: ProvenanceGraph
    #: the graph of each step Eq. 3 weighs that saw telemetry
    step_provenance: dict[int, ProvenanceGraph]
    result: DiagnosisResult
    #: Eq. 3 score per non-collective flow
    collective_scores: dict[FlowKey, float] = field(default_factory=dict)

    @property
    def detected_flows(self) -> set[FlowKey]:
        return self.result.detected_flows

    def top_contributors(self, n: int = 5) -> list[tuple[FlowKey, float]]:
        ranked = sorted(self.collective_scores.items(),
                        key=lambda kv: -kv[1])
        return ranked[:n]

    def summary(self) -> str:
        """Operator-facing text summary."""
        lines = [
            f"collective steps analysed: {len(self.waiting_graph.records)}",
            f"critical path length: {len(self.critical_path)} steps",
            f"bottleneck steps: {self.bottleneck_steps}",
            f"findings: {len(self.result.findings)}",
        ]
        for finding in self.result.findings:
            lines.append(f"  - {finding.type.value}: {finding.detail}")
        for flow, score in self.top_contributors():
            lines.append(f"  contributor {flow.short()}: {score:,.0f}")
        return "\n".join(lines)


class VedrfolnirAnalyzer:
    """Collects monitoring data and produces diagnoses."""

    def __init__(self, pfc_xoff_bytes: Bytes) -> None:
        self.pfc_xoff_bytes = pfc_xoff_bytes
        self.step_records: list[StepRecord] = []
        self.reports: list[SwitchReport] = []

    # data ingestion -----------------------------------------------------
    def add_step_record(self, record: StepRecord) -> None:
        self.step_records.append(record)

    def add_report(self, report: SwitchReport) -> None:
        self.reports.append(report)

    # analysis -----------------------------------------------------------
    def analyze(self, runtime: CollectiveRuntime) -> VedrfolnirDiagnosis:
        waiting = WaitingGraph(runtime.schedule, self.step_records,
                               mode="binding")
        timing = step_timing(
            waiting,
            lambda key: runtime.expected_step_time_ns(
                runtime.schedule.step(*key)),
            runtime.flow_keys)
        kernel = DiagnosisKernel(self.pfc_xoff_bytes,
                                 runtime.collective_flow_keys)
        for report in self.reports:
            kernel.add_report(report)
        breakdown = kernel.snapshot(runtime.collective_flow_keys,
                                    waiting.windows, timing)
        return VedrfolnirDiagnosis(
            waiting_graph=waiting,
            critical_path=waiting.critical_path(),
            bottleneck_steps=timing.bottleneck_steps,
            provenance=breakdown.provenance,
            step_provenance=breakdown.step_provenance,
            result=breakdown.result,
            collective_scores=breakdown.collective_scores,
        )
