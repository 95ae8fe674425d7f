"""What one rolling replay makes the §III-D kernel do, counted.

A rolling snapshot rates only the steps Eq. 3 weighs (a critical flow
known, slower than expected) and derives a pause victim's edges only
when what they are derived from moved.  Timing cannot show that on a
shared machine; these counts can, and they are deterministic.  The
trace is the incast case ``test_kernel_property`` records, replayed at
the ``live_stream`` benchmark's cadence.  Each bound sits next to what
the kernel did before either rule (in the comment): a change that rates
a step Eq. 3 ignores, or re-derives victim edges nothing moved, fails.
"""

import pytest

from repro.core import analyzer
from repro.core.provenance import ProvenanceAccumulator
from repro.live import LivePipeline, PipelineConfig
from repro.traces import read_header, trace_events
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


def counted_replay(path, monkeypatch) -> dict:
    counts = dict.fromkeys(BOUNDS, 0)

    def counting(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args):
            counts[key] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counting(ProvenanceAccumulator, "snapshot", "graph snapshots")
    counting(analyzer, "score_row", "score_row")
    counting(analyzer, "score_table", "score_table")
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
