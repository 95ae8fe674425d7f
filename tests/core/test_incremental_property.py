"""Property: the pruned, incrementally fed graph == the from-scratch
batch walk, regardless of ingestion order or prune cadence.

Randomized out-of-order ingestion across three different schedule
shapes, ~50 seeded shuffles each paired with a random prune interval:
the streaming graph's critical path must always equal
:class:`ReferenceWaitingGraph` (the batch walk as it was, kept in
``test_waiting_graph.py``) over the same (complete) record set.
"""

import random
import zlib

import pytest

from repro.collective.extra import all_to_all
from repro.collective.halving_doubling import halving_doubling_allgather
from repro.collective.ring import ring_allgather
from repro.collective.runtime import StepRecord
from repro.core.waiting_graph import WaitingGraph
from repro.simnet.packet import FlowKey
from tests.core.test_waiting_graph import (ReferenceWaitingGraph,
                                           assert_answers_equal)

SCHEDULES = {
    "ring": lambda: ring_allgather(["n0", "n1", "n2", "n3"], 1000),
    "halving_doubling": lambda: halving_doubling_allgather(
        ["n0", "n1", "n2", "n3"], 1000),
    "all_to_all": lambda: all_to_all(["n0", "n1", "n2"], 1000),
}


def synthesize_records(schedule, rng: random.Random) -> list[StepRecord]:
    """Dependency-consistent records with randomized durations.

    Start times honor the schedule's structural edges (a step starts
    when its node's previous step ended and its data dependency's end
    arrived), so the resulting graph is a realistic execution, not
    noise.
    """
    ends: dict[tuple[str, int], float] = {}
    records: list[StepRecord] = []
    max_index = max(s.step_index for s in schedule.all_steps())
    for idx in range(max_index + 1):
        for node in schedule.nodes:
            steps = schedule.steps.get(node, [])
            if idx >= len(steps):
                continue
            step = steps[idx]
            prev_end = ends.get((node, idx - 1), 0.0)
            dep_end = ends.get(step.depends_on, 0.0) \
                if step.depends_on is not None else 0.0
            if dep_end > prev_end:
                binding = "recv"
            elif idx > 0 and prev_end > dep_end:
                binding = "prev_send"
            else:
                binding = None
            start = max(prev_end, dep_end)
            duration = rng.uniform(10.0, 500.0)
            end = start + duration
            ends[(node, idx)] = end
            records.append(StepRecord(
                node=node, step_index=idx,
                flow_key=FlowKey(node, step.peer, 9000 + idx, 4791),
                size_bytes=step.size_bytes,
                start_time=start, end_time=end,
                recv_source=None, binding_dependency=binding))
    return records


def critical_path_of(graph) -> list[tuple[str, int]]:
    return [(e.node, e.step_index) for e in graph.critical_path()]


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_snapshot_equals_batch_under_shuffled_ingestion(name):
    make_schedule = SCHEDULES[name]
    for trial in range(50):
        rng = random.Random(zlib.crc32(name.encode()) + trial)
        schedule = make_schedule()
        records = synthesize_records(schedule, rng)
        shuffled = records[:]
        rng.shuffle(shuffled)
        prune_interval = rng.choice([0, 1, 2, 3, 5, 8, 16])
        incremental = WaitingGraph(
            schedule, prune_interval=prune_interval)
        for record in shuffled:
            incremental.submit(record)
        incremental.prune()
        batch = ReferenceWaitingGraph(schedule, records)
        assert critical_path_of(incremental) == \
            critical_path_of(batch), \
            f"{name} trial {trial} prune_interval={prune_interval}"


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_pruning_only_ever_removes_noncritical(name):
    rng = random.Random(99)
    schedule = SCHEDULES[name]()
    records = synthesize_records(schedule, rng)
    incremental = WaitingGraph(schedule, prune_interval=1)
    for record in records:
        incremental.submit(record)
    incremental.prune()
    batch_path = critical_path_of(ReferenceWaitingGraph(schedule, records))
    retained = set(incremental.records)
    assert set(batch_path) <= retained


# ----------------------------------------------------------------------
# the live structure against a rebuild, step by step
# ----------------------------------------------------------------------
def reference_prune(schedule, records: dict, expected: set) -> set:
    """The prune as it was when each pass rebuilt a batch graph: keep
    what a pending or retained step structurally waits on, and the
    binding chain behind the latest end; returns the doomed keys."""
    def waits_on(node, idx):
        if idx > 0:
            yield (node, idx - 1)
        if schedule.step(node, idx).depends_on is not None:
            yield schedule.step(node, idx).depends_on

    keep = {key for node, idx in list(expected) + list(records)
            for key in waits_on(node, idx)}
    keep.update(critical_path_of(
        ReferenceWaitingGraph(schedule, records.values())))
    return set(records) - keep


@pytest.mark.parametrize("nodes", [8, 12, 48])
def test_live_graph_equals_a_rebuild_after_every_ingest_and_prune(nodes):
    rng = random.Random(nodes)
    schedule = ring_allgather([f"n{i}" for i in range(nodes)], 1000)
    records = synthesize_records(schedule, rng)
    records.sort(key=lambda r: r.end_time)
    # mostly completion order, with local swaps, late duplicates and,
    # at the end, copies of records the prune has let go by then
    stream = records[:]
    for i in range(0, len(stream) - 1, 7):
        stream[i], stream[i + 1] = stream[i + 1], stream[i]
    for i in range(5, len(records), 11):
        stream.insert(min(len(stream), i + rng.randint(0, 3 * nodes)),
                      records[i])
    stream += rng.sample(records[-2 * nodes:], nodes) + records[-3:]
    incremental = WaitingGraph(schedule, prune_interval=0)
    mirror: dict = {}
    expected = {(s.node, s.step_index) for s in schedule.all_steps()}
    back_from_the_dead = 0
    for count, record in enumerate(stream, 1):
        key = (record.node, record.step_index)
        back_from_the_dead += key not in mirror and key not in expected
        incremental.submit(record)
        mirror[key] = record
        expected.discard(key)
        assert list(incremental.records) == list(mirror)
        assert incremental.critical_path() == ReferenceWaitingGraph(
            schedule, mirror.values()).critical_path()
        if count % 5 == 0:
            doomed = reference_prune(schedule, mirror, expected)
            assert incremental.prune() == len(doomed)
            for gone in doomed:
                del mirror[gone]
            assert list(incremental.records) == list(mirror)
            assert incremental.critical_path() == ReferenceWaitingGraph(
                schedule, mirror.values()).critical_path()
    assert back_from_the_dead > 0
    assert incremental.pruned_total > nodes
    # what a diagnosis reads has survived every prune
    assert_answers_equal(incremental,
                         ReferenceWaitingGraph(schedule, stream))


def test_replaced_record_is_looked_at_again():
    """A duplicate that differs from what it replaces (a corrected
    end time) may move the anchor and the chain."""
    schedule = ring_allgather(["n0", "n1", "n2", "n3"], 1000)
    records = synthesize_records(schedule, random.Random(4))
    incremental = WaitingGraph(schedule, prune_interval=0)
    for record in records:
        incremental.submit(record)
    last = max(records, key=lambda r: r.end_time)
    other = next(r for r in records
                 if r.step_index == last.step_index and r is not last)
    import dataclasses
    late = dataclasses.replace(other, end_time=last.end_time + 1.0)
    incremental.submit(late)
    replaced = [late if r is other else r for r in records]
    assert incremental.critical_path() == ReferenceWaitingGraph(
        schedule, replaced).critical_path()
    assert incremental.critical_path()[-1].node == other.node


def test_live_path_never_draws_the_fig4_view(monkeypatch):
    """The pipeline's ingest, prune and snapshot path reads the chain
    and the per-step scalars: the vertex/edge view of Fig. 4 is not
    drawn until somebody asks for it."""
    from repro.live import LivePipeline, PipelineConfig
    from repro.traces.stream import TraceEvent

    drawn = []
    real = WaitingGraph._build

    def counting(self):
        drawn.append(1)
        real(self)

    monkeypatch.setattr(WaitingGraph, "_build", counting)
    schedule = ring_allgather([f"n{i}" for i in range(12)], 1000)
    records = synthesize_records(schedule, random.Random(12))
    records.sort(key=lambda r: r.end_time)
    pipeline = LivePipeline(
        schedule, {}, {}, 262_144,
        config=PipelineConfig(snapshot_every=8))
    for record in records:
        pipeline.publish(TraceEvent("step_record", record.end_time,
                                    record, line_no=0))
    final = pipeline.finish()
    assert len(pipeline.snapshots) > 10
    assert final.counters["graph_pruned"] > 0
    assert drawn == []
    assert [(e.node, e.step_index) for e in final.critical_path] \
        == critical_path_of(ReferenceWaitingGraph(schedule, records))
    assert len(pipeline.graph.vertices) \
        == 2 * final.counters["graph_retained"]
    assert len(pipeline.graph.edges) >= len(pipeline.graph.records)
    assert drawn == [1]
