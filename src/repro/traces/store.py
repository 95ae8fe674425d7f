"""Trace files: capture a live run, reload it, re-run the analysis.

The capture format is JSONL — one JSON object per line, each tagged
with a ``kind``: ``meta`` (versioning + network parameters),
``schedule`` (the decomposition), ``flow_key`` (the (node, step) →
5-tuple map), ``expected`` (per-step ideal execution times),
``step_record`` and ``switch_report`` (the monitoring stream, in
arrival order).  The read-optimized columnar sibling
(:mod:`repro.traces.columnar`) stores the same records and holds the
one reader of both; :func:`load_trace` accepts either file.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro.collective.primitives import SendStep, StepSchedule
from repro.collective.runtime import CollectiveRuntime, StepRecord
from repro.core.analyzer import VedrfolnirAnalyzer, VedrfolnirDiagnosis
from repro.simnet.packet import FlowKey
from repro.simnet.telemetry import SwitchReport
from repro.traces import serialize

if TYPE_CHECKING:  # pragma: no cover
    from repro.live.robustness import Quarantine
    from repro.simnet.network import Network

FORMAT_VERSION = 1


class TraceFormatError(ValueError):
    """A trace file violates the JSONL format contract.

    Carries the offending line number so a corrupt multi-gigabyte
    capture can be triaged without bisecting it by hand.
    """

    def __init__(self, message: str,
                 line_no: Optional[int] = None) -> None:
        if line_no is not None:
            message = f"{message} (line {line_no})"
        super().__init__(message)
        self.line_no = line_no


@dataclass
class Trace:
    """A fully-loaded trace."""

    schedule: StepSchedule
    flow_keys: dict[tuple[str, int], FlowKey]
    expected_step_times: dict[tuple[str, int], float]
    step_records: list[StepRecord]
    reports: list[SwitchReport]
    pfc_xoff_bytes: int
    meta: dict = field(default_factory=dict)
    #: entries whose ``kind`` this reader does not understand (a newer
    #: writer's extension records): kind -> occurrence count
    unknown_kinds: dict[str, int] = field(default_factory=dict)
    #: the same rejects, routed through the live pipeline's fault
    #: containment so offline and online loads share one accounting
    quarantine: Optional["Quarantine"] = None


class TraceRuntime:
    """Duck-typed stand-in for :class:`CollectiveRuntime` that the
    analyzer can consume offline."""

    def __init__(self, trace: Trace) -> None:
        self.schedule = trace.schedule
        self.flow_keys = trace.flow_keys
        self._expected = trace.expected_step_times

    @property
    def collective_flow_keys(self) -> set[FlowKey]:
        return set(self.flow_keys.values())

    def expected_step_time_ns(self, step: SendStep) -> float:
        return self._expected.get((step.node, step.step_index), 0.0)


class TraceRecorder:
    """Captures a live run's monitoring stream.

    Install before starting the collective — it chains onto the
    network's report sink and the runtime's step-end listeners without
    disturbing whatever diagnosis system is also attached.
    """

    def __init__(self, network: "Network",
                 runtime: CollectiveRuntime) -> None:
        self.network = network
        self.runtime = runtime
        self.step_records: list[StepRecord] = []
        self.reports: list[SwitchReport] = []

    @classmethod
    def attach(cls, network: "Network",
               runtime: CollectiveRuntime) -> "TraceRecorder":
        recorder = cls(network, runtime)
        runtime.step_end_listeners.append(recorder.step_records.append)
        previous_sink = network.report_sink

        def tee(report: SwitchReport) -> None:
            recorder.reports.append(report)
            previous_sink(report)

        network.set_report_sink(tee)
        return recorder

    def write(self, path: Union[str, Path]) -> Path:
        """Serialize everything captured so far."""
        path = Path(path)
        runtime = self.runtime
        with path.open("w") as handle:
            def emit(kind: str, payload: dict) -> None:
                handle.write(json.dumps({"kind": kind, **payload}) + "\n")

            emit("meta", {
                "version": FORMAT_VERSION,
                "pfc_xoff_bytes": self.network.config.pfc_xoff_bytes,
                "topology": self.network.topology.name,
                "sim_time_ns": self.network.sim.now,
            })
            emit("schedule",
                 {"schedule": serialize.encode_schedule(runtime.schedule)})
            for (node, idx), key in sorted(runtime.flow_keys.items()):
                emit("flow_key", {
                    "node": node, "step": idx,
                    "flow": serialize.encode_flow_key(key)})
            for step in runtime.schedule.all_steps():
                emit("expected", {
                    "node": step.node, "step": step.step_index,
                    "time_ns": runtime.expected_step_time_ns(step)})
            for record in self.step_records:
                emit("step_record", serialize.encode_step_record(record))
            for report in self.reports:
                emit("switch_report",
                     serialize.encode_switch_report(report))
        return path


def load_trace(path: Union[str, Path]) -> Trace:
    """Load a trace file, in either on-disk format, into typed objects
    (:func:`repro.traces.open_trace`, every record decoded).

    A malformed line raises :class:`TraceFormatError`.  Unknown record
    kinds are skipped (forward compatibility) and the skips are routed
    through the same :class:`~repro.live.robustness.Quarantine` counter
    the live pipeline uses, so offline loads and online streams report
    rejects identically; each load's is on :attr:`Trace.quarantine`.
    """
    # imported lazily: repro.live.__init__ imports the pipeline, which
    # reads traces via this module — a top-level import would cycle
    from repro.live.robustness import Quarantine
    from repro.traces.columnar import RAW_UNKNOWN, open_trace

    quarantine = Quarantine()
    unknown_kinds: dict[str, int] = {}
    with open_trace(path) as trace:
        header = trace.header()
        for label, line_no, text in trace.flagged_lines(RAW_UNKNOWN):
            # forward compatibility: a newer writer's record kinds
            # must not abort the load, but must not vanish either
            if label not in unknown_kinds:
                warnings.warn(
                    f"skipping unknown trace record kind {label!r} "
                    f"(first at line {line_no})",
                    stacklevel=2)
            unknown_kinds[label] = unknown_kinds.get(label, 0) + 1
            quarantine.admit(
                line_no, f"unknown trace record kind: {label}", text)
        step_records, reports = trace.decode_all()
    return Trace(
        schedule=header.schedule,
        flow_keys=header.flow_keys,
        expected_step_times=header.expected_step_times,
        step_records=step_records,
        reports=reports,
        pfc_xoff_bytes=header.pfc_xoff_bytes,
        meta=header.meta,
        unknown_kinds=unknown_kinds,
        quarantine=quarantine,
    )


def analyze_trace(trace: Trace) -> VedrfolnirDiagnosis:
    """Run the full §III-D analysis over a loaded trace."""
    analyzer = VedrfolnirAnalyzer(pfc_xoff_bytes=trace.pfc_xoff_bytes)
    for record in trace.step_records:
        analyzer.add_step_record(record)
    for report in trace.reports:
        analyzer.add_report(report)
    return analyzer.analyze(TraceRuntime(trace))
