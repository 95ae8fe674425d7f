"""What a rolling replay and a batch analysis make the §III-D kernel
do, counted.

A snapshot, rolling or batch, rates only the steps Eq. 3 weighs (a
critical flow known, slower than expected), and a rolling one derives
a pause victim's edges only when what they are derived from moved.
Timing cannot show that on a shared machine; these counts can, and they
are deterministic.  The trace is the incast case ``test_kernel_property``
records, replayed at the ``live_stream`` benchmark's cadence.  Each
bound sits next to what the kernel did before either rule (in the
comment): a change that rates a step Eq. 3 ignores, or re-derives
victim edges nothing moved, fails.
"""

import pytest

from repro.core import analyzer
from repro.core.provenance import ProvenanceAccumulator
from repro.live import LivePipeline, PipelineConfig
from repro.traces import (TraceRuntime, analyze_trace, load_trace,
                          read_header, trace_events)
from tests.core.test_analyzer import weighed_steps
from tests.core.test_kernel_property import record_trace

#: upper bounds per replay (5 rolling snapshots)
BOUNDS = {
    "graph snapshots": 9,            # before: 15
    "score_row": 2,                  # before: 6
    "score_table": 2,                # before: 4
    "by_source rebuilds": 3,         # before: 15, one per finalise
    "victim edge derivations": 13,   # before: 56, every victim every time
}


@pytest.fixture(scope="module")
def incast(tmp_path_factory):
    return record_trace("incast", tmp_path_factory.mktemp("counts"))


def counting(monkeypatch, counts: dict, owner, name: str, key: str):
    real = getattr(owner, name)

    def wrapper(*args):
        counts[key] += 1
        return real(*args)
    monkeypatch.setattr(owner, name, wrapper)


def counted_replay(path, monkeypatch) -> dict:
    counts = dict.fromkeys(BOUNDS, 0)
    counting(monkeypatch, counts, ProvenanceAccumulator, "snapshot",
             "graph snapshots")
    counting(monkeypatch, counts, analyzer, "score_row", "score_row")
    counting(monkeypatch, counts, analyzer, "score_table", "score_table")
    attach = ProvenanceAccumulator._attach_pause_victims

    def attach_counted(self, graph, index):
        by_source, derived = self._by_source, dict(self._blocked)
        attach(self, graph, index)
        counts["by_source rebuilds"] += self._by_source is not by_source
        counts["victim edge derivations"] += sum(
            derived.get(victim) is not known
            for victim, known in self._blocked.items())

    monkeypatch.setattr(ProvenanceAccumulator, "_attach_pause_victims",
                        attach_counted)
    pipeline = LivePipeline.from_header(
        read_header(path), PipelineConfig(snapshot_every=32))
    for event in trace_events(path):
        pipeline.publish(event)
    pipeline.finish()
    return counts


def test_a_rolling_replay_rates_only_what_eq3_weighs(incast, monkeypatch):
    counts = counted_replay(incast, monkeypatch)
    assert counts["graph snapshots"] > 0
    over = {name: (count, BOUNDS[name]) for name, count in counts.items()
            if count > BOUNDS[name]}
    assert not over, over


def test_a_batch_analysis_rates_only_what_eq3_weighs(incast, monkeypatch):
    """Batch ``analyze_trace`` follows the rolling rule: one graph
    snapshot for the overall graph, then a graph and a ``score_row``
    for each step Eq. 3 weighs that saw telemetry, and no other step."""
    trace = load_trace(incast)
    counts = {"graph snapshots": 0, "score_row": 0}
    counting(monkeypatch, counts, ProvenanceAccumulator, "snapshot",
             "graph snapshots")
    counting(monkeypatch, counts, analyzer, "score_row", "score_row")
    diagnosis = analyze_trace(trace)
    weighed, seen = weighed_steps(diagnosis, TraceRuntime(trace),
                                  trace.reports)
    assert weighed < seen
    assert counts == {"graph snapshots": 1 + len(weighed),
                      "score_row": len(weighed)}
    assert set(diagnosis.step_provenance) == weighed
