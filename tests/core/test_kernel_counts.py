"""What a rolling replay and a batch analysis make the §III-D kernel
do, counted.

A snapshot, rolling or batch, rates only the steps Eq. 3 weighs (a
critical flow known, slower than expected), and a rolling one patches
only the derived state its reports moved: a pause victim's edges, a
pause sender's port-port terms, a port's findings.  Timing cannot show
that on a shared machine; these counts can, and they are
deterministic.  Two traces are replayed at the ``live_stream``
benchmark's cadence: the incast case ``test_kernel_property`` records,
and the 12-node incast the benchmark itself replays.  Each bound sits
next to what the kernel did before the rule that holds it down (in the
comment): a change that rates a step Eq. 3 ignores, or derives again
what nothing moved, fails.
"""

import pytest

from repro.anomalies.scenarios import ScenarioConfig, make_cases
from repro.core import analyzer, diagnosis
from repro.core.provenance import ProvenanceAccumulator
from repro.experiments.harness import make_system
from repro.live import LivePipeline, PipelineConfig
from repro.traces import (TraceRecorder, TraceRuntime, analyze_trace,
                          load_trace, read_header, trace_events)
from tests.core.test_analyzer import weighed_steps
from tests.core.test_kernel_property import record_trace

#: upper bounds per replay of the small incast (5 rolling snapshots)
BOUNDS = {
    "graph snapshots": 9,            # before: 15
    "score_row": 2,                  # before: 6
    "score_table": 2,                # before: 4
    "by_source rebuilds": 3,         # before: 15, one per finalise
    "victim edge derivations": 13,   # before: 56, every victim every time
    "port-port terms": 26,           # before: 34, every link every time
    "victim edges applied": 2,       # before: 1
    "findings built": 20,            # before: 60, every finding every time
}
#: upper bounds per replay of the 12-node incast (21 snapshots); before:
#: what the kernel did when a snapshot re-derived every pause link,
#: applied every victim's edges and built every finding again
ELEPHANT_BOUNDS = {
    "graph snapshots": 45,           # before: 45
    "port-port terms": 380,          # before: 616
    "victim edges applied": 640,     # before: 1907
    "findings built": 110,           # before: 637
}


@pytest.fixture(scope="module")
def incast(tmp_path_factory):
    return record_trace("incast", tmp_path_factory.mktemp("counts"))


@pytest.fixture(scope="module")
def elephant(tmp_path_factory):
    """The ``live_stream`` benchmark's trace: incast, 12 ring nodes,
    fat-tree k=4, scale 0.002, corpus seed 42."""
    config = ScenarioConfig(scale=0.002, num_collective_nodes=12,
                            fat_tree_k=4, base_seed=42)
    case = make_cases("incast", 1, config)[0]
    network, runtime = case.build_network()
    make_system("vedrfolnir").attach(network, runtime)
    recorder = TraceRecorder.attach(network, runtime)
    runtime.start()
    case.inject(network, runtime)
    network.run_until_quiet(max_time=config.run_deadline_ns())
    assert runtime.completed
    path = tmp_path_factory.mktemp("elephant") / "incast-12.jsonl"
    recorder.write(path)
    return path


def counting(monkeypatch, counts: dict, owner, name: str, key: str):
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)


def counted_replay(path, monkeypatch) -> dict:
    counts = dict.fromkeys(BOUNDS, 0)
    counting(monkeypatch, counts, ProvenanceAccumulator, "snapshot",
             "graph snapshots")
    counting(monkeypatch, counts, analyzer, "score_row", "score_row")
    counting(monkeypatch, counts, analyzer, "score_table", "score_table")
    counting(monkeypatch, counts, diagnosis, "AnomalyFinding",
             "findings built")
    derive = ProvenanceAccumulator._derive_victims
    terms = ProvenanceAccumulator._sender_terms

    def derive_counted(self, *args):
        by_source, edges = self._by_source, self._victim_edges
        before = len(edges)
        rederived = derive(self, *args)
        counts["by_source rebuilds"] += self._by_source is not by_source
        counts["victim edge derivations"] += len(rederived)
        counts["victim edges applied"] += len(self._victim_edges) - (
            before if self._victim_edges is edges else 0)
        return rederived

    def terms_counted(self, sender):
        found = terms(self, sender)
        counts["port-port terms"] += len(found)
        return found

    monkeypatch.setattr(ProvenanceAccumulator, "_derive_victims",
                        derive_counted)
    monkeypatch.setattr(ProvenanceAccumulator, "_sender_terms",
                        terms_counted)
    pipeline = LivePipeline.from_header(
        read_header(path), PipelineConfig(snapshot_every=32))
    for event in trace_events(path):
        pipeline.publish(event)
    pipeline.finish()
    return counts


def over(counts: dict, bounds: dict) -> dict:
    return {name: (counts[name], bound) for name, bound in bounds.items()
            if counts[name] > bound}


def test_a_rolling_replay_rates_only_what_eq3_weighs(incast, monkeypatch):
    counts = counted_replay(incast, monkeypatch)
    assert counts["graph snapshots"] > 0
    exceeded = over(counts, BOUNDS)
    assert not exceeded, exceeded


def test_a_rolling_replay_patches_only_what_moved(elephant, monkeypatch):
    counts = counted_replay(elephant, monkeypatch)
    assert counts["findings built"] > 0
    assert counts["victim edges applied"] > 0
    exceeded = over(counts, ELEPHANT_BOUNDS)
    assert not exceeded, exceeded


def test_a_batch_analysis_rates_only_what_eq3_weighs(incast, monkeypatch):
    """Batch ``analyze_trace`` follows the rolling rule: one graph
    snapshot for the overall graph, then a graph and a ``score_row``
    for each step Eq. 3 weighs that saw telemetry, and no other step."""
    trace = load_trace(incast)
    counts = {"graph snapshots": 0, "score_row": 0}
    counting(monkeypatch, counts, ProvenanceAccumulator, "snapshot",
             "graph snapshots")
    counting(monkeypatch, counts, analyzer, "score_row", "score_row")
    diagnosis_ = analyze_trace(trace)
    weighed, seen = weighed_steps(diagnosis_, TraceRuntime(trace),
                                  trace.reports)
    assert weighed < seen
    assert counts == {"graph snapshots": 1 + len(weighed),
                      "score_row": len(weighed)}
    assert set(diagnosis_.step_provenance) == weighed
