"""Waiting graph construction, pruning, critical path (§III-B, Fig. 4).

Also home of :class:`ReferenceWaitingGraph`, the batch critical-path
walk as it was written before ``WaitingGraph`` became the one live
structure: nothing kept between questions, every answer recomputed from
the whole record set.  The live-vs-batch tests here and in
``test_incremental*.py`` / ``test_kernel_property.py`` compare against
it.
"""

import dataclasses
from typing import Iterable, Optional

import pytest

from repro.collective.primitives import StepSchedule
from repro.collective.ring import ring_reduce_scatter
from repro.collective.runtime import StepRecord
from repro.core.waiting_graph import (CriticalPathEntry, EdgeKind,
                                       WaitingGraph, WaitingVertex)
from repro.simnet.packet import FlowKey


class ReferenceWaitingGraph:
    """§III-D1 from scratch over a complete (or partial) record set."""

    def __init__(self, schedule: StepSchedule,
                 records: Iterable[StepRecord]) -> None:
        self.schedule = schedule
        self.given = list(records)
        self.records: dict[tuple[str, int], StepRecord] = {
            (r.node, r.step_index): r for r in self.given}

    def critical_path(self) -> list[CriticalPathEntry]:
        """The chain of steps that determined total execution time
        (§III-D1): walk back from the last-ending step through each
        start's binding predecessor."""
        if not self.records:
            return []
        key = max(self.records, key=lambda k: self.records[k].end_time)
        path: list[CriticalPathEntry] = []
        visited: set[tuple[str, int]] = set()
        while key is not None and key not in visited:
            visited.add(key)
            record = self.records[key]
            path.append(CriticalPathEntry(
                node=record.node,
                step_index=record.step_index,
                start_time=record.start_time,
                end_time=record.end_time,
                entered_via=record.binding_dependency,
            ))
            key = self._predecessor_of(record)
        path.reverse()
        return path

    def _predecessor_of(self, record: StepRecord
                        ) -> Optional[tuple[str, int]]:
        step = self.schedule.step(record.node, record.step_index)
        binding = record.binding_dependency
        if binding == "recv" and step.depends_on is not None:
            return step.depends_on if step.depends_on in self.records \
                else None
        if record.step_index > 0:
            prev = (record.node, record.step_index - 1)
            return prev if prev in self.records else None
        return None

    def critical_flows_by_step(self) -> dict[int, str]:
        """For each step index, the node whose flow is on the critical
        path at that step (cf_i in Eq. 3).  Falls back to the
        slowest-duration flow for step indices the critical path skips."""
        result: dict[int, str] = {}
        for entry in self.critical_path():
            result[entry.step_index] = entry.node
        slowest: dict[int, StepRecord] = {}
        for record in self.records.values():
            idx = record.step_index
            if idx not in slowest \
                    or record.duration_ns > slowest[idx].duration_ns:
                slowest[idx] = record
        for idx in set(slowest) - set(result):
            result[idx] = slowest[idx].node
        return result

    def step_execution_times(self) -> dict[int, float]:
        """exec_time(i) of Eq. 3: duration of the critical flow's step."""
        critical = self.critical_flows_by_step()
        return {idx: self.records[(node, idx)].duration_ns
                for idx, node in critical.items()
                if (node, idx) in self.records}

    def total_time_ns(self) -> float:
        if not self.records:
            return 0.0
        start = min(r.start_time for r in self.records.values())
        end = max(r.end_time for r in self.records.values())
        return end - start

    @property
    def windows(self) -> dict[int, list[float]]:
        """Per step index ``[min start, max end]``, as the batch
        analyzer's window loop took them: over every record given."""
        windows: dict[int, list[float]] = {}
        for record in self.given:
            window = windows.setdefault(
                record.step_index, [record.start_time, record.end_time])
            window[0] = min(window[0], record.start_time)
            window[1] = max(window[1], record.end_time)
        return windows


def assert_answers_equal(graph, reference) -> None:
    """Everything a diagnosis reads off ``graph`` equals ``reference``
    (a :class:`ReferenceWaitingGraph`, or another graph)."""
    assert graph.critical_path() == reference.critical_path()
    assert graph.critical_flows_by_step() \
        == reference.critical_flows_by_step()
    assert graph.step_execution_times() \
        == reference.step_execution_times()
    assert graph.windows == reference.windows
    assert graph.total_time_ns() == reference.total_time_ns()


def make_record(node, idx, start, end, recv_source=None, binding=None):
    return StepRecord(
        node=node, step_index=idx,
        flow_key=FlowKey(node, "x", 1000 + idx, 4791),
        size_bytes=1000, start_time=start, end_time=end,
        recv_source=recv_source, binding_dependency=binding)


def ring4_schedule() -> StepSchedule:
    return ring_reduce_scatter(["n1", "n2", "n3", "n4"], 1000)


def synthetic_ring_records():
    """Two steps of a 4-node ring; n3's step 0 is slow, so everyone
    downstream binds on recv."""
    records = []
    schedule = ring4_schedule()
    ends0 = {"n1": 10.0, "n2": 10.0, "n3": 50.0, "n4": 10.0}
    for node in schedule.nodes:
        records.append(make_record(node, 0, 0.0, ends0[node]))
    # step 1: n4 waits for n3's slow data (recv binding); others send on
    starts1 = {"n1": 11.0, "n2": 11.0, "n3": 51.0, "n4": 50.0}
    bindings = {"n1": "prev_send", "n2": "prev_send",
                "n3": "prev_send", "n4": "recv"}
    for node in schedule.nodes:
        records.append(make_record(node, 1, starts1[node],
                                   starts1[node] + 10.0,
                                   binding=bindings[node]))
    return schedule, records


def test_vertices_per_step():
    schedule, records = synthetic_ring_records()
    graph = WaitingGraph(schedule, records, mode="full")
    assert len(graph.vertices) == 2 * len(records)


def test_full_mode_edge_kinds():
    schedule, records = synthetic_ring_records()
    graph = WaitingGraph(schedule, records, mode="full")
    kinds = {e.kind for e in graph.edges}
    assert kinds == {EdgeKind.EXECUTION, EdgeKind.INTRA_FLOW,
                     EdgeKind.DATA_DEP}


def test_execution_edge_weight_is_duration():
    schedule, records = synthetic_ring_records()
    graph = WaitingGraph(schedule, records, mode="full")
    for edge in graph.edges:
        if edge.kind is EdgeKind.EXECUTION:
            record = graph.records[(edge.src.node, edge.src.step_index)]
            assert edge.weight_ns == record.duration_ns
        else:
            assert edge.weight_ns == 0.0


def test_edges_point_in_waits_on_direction():
    """start(FiSj) -> end(FiS(j-1)): the waiter points at the waited."""
    schedule, records = synthetic_ring_records()
    graph = WaitingGraph(schedule, records, mode="full")
    orange = [e for e in graph.edges if e.kind is EdgeKind.INTRA_FLOW]
    for edge in orange:
        assert edge.src.point == "start"
        assert edge.dst.point == "end"
        assert edge.src.node == edge.dst.node
        assert edge.src.step_index == edge.dst.step_index + 1


def test_binding_mode_drops_non_binding_edge():
    schedule, records = synthetic_ring_records()
    graph = WaitingGraph(schedule, records, mode="binding")
    n4_start = WaitingVertex("n4", 1, "start")
    outgoing = [e for e in graph.edges if e.src == n4_start]
    kinds = {e.kind for e in outgoing}
    assert kinds == {EdgeKind.DATA_DEP}  # binding was 'recv'
    n1_start = WaitingVertex("n1", 1, "start")
    kinds1 = {e.kind for e in graph.edges if e.src == n1_start}
    assert kinds1 == {EdgeKind.INTRA_FLOW}


def test_invalid_mode_rejected():
    schedule, records = synthetic_ring_records()
    with pytest.raises(ValueError):
        WaitingGraph(schedule, records, mode="bogus")


def test_critical_path_walks_through_slow_flow():
    schedule, records = synthetic_ring_records()
    graph = WaitingGraph(schedule, records, mode="binding")
    path = graph.critical_path()
    labels = [(e.node, e.step_index) for e in path]
    # last end: n3 step 1 (ends at 61); its binding is prev_send -> n3
    # step 0 (the slow one)
    assert labels == [("n3", 0), ("n3", 1)]


def test_critical_path_crosses_flows_via_recv():
    schedule, records = synthetic_ring_records()
    # make n4's step 1 the global latest so the walk starts there
    records = [r for r in records if not (r.node == "n4"
                                          and r.step_index == 1)]
    records.append(make_record("n4", 1, 50.0, 100.0, binding="recv"))
    graph = WaitingGraph(schedule, records, mode="binding")
    path = graph.critical_path()
    labels = [(e.node, e.step_index) for e in path]
    assert labels == [("n3", 0), ("n4", 1)]


def test_prune_removes_unwaited_vertices():
    schedule, records = synthetic_ring_records()
    graph = WaitingGraph(schedule, records, mode="binding")
    before = len(graph.vertices)
    removed = graph.prune_unwaited()
    assert removed > 0
    assert len(graph.vertices) == before - removed
    # the globally-latest end (n3 S1) must survive
    assert WaitingVertex("n3", 1, "end") in graph.vertices


def test_prune_preserves_critical_chain():
    schedule, records = synthetic_ring_records()
    graph = WaitingGraph(schedule, records, mode="binding")
    graph.prune_unwaited()
    assert WaitingVertex("n3", 0, "end") in graph.vertices
    assert WaitingVertex("n3", 0, "start") in graph.vertices


def test_step_execution_times_follow_critical_flows():
    schedule, records = synthetic_ring_records()
    graph = WaitingGraph(schedule, records, mode="binding")
    times = graph.step_execution_times()
    assert times[0] == 50.0  # n3's slow step
    assert times[1] == 10.0


def test_critical_flows_by_step():
    schedule, records = synthetic_ring_records()
    graph = WaitingGraph(schedule, records, mode="binding")
    critical = graph.critical_flows_by_step()
    assert critical[0] == "n3"


def test_total_time():
    schedule, records = synthetic_ring_records()
    graph = WaitingGraph(schedule, records, mode="binding")
    assert graph.total_time_ns() == 61.0


def test_empty_graph():
    schedule = ring4_schedule()
    graph = WaitingGraph(schedule, [], mode="binding")
    assert graph.critical_path() == []
    assert graph.total_time_ns() == 0.0
    assert graph.prune_unwaited() == 0


def test_partial_records_tolerated():
    """Records missing for some steps (collective still running) must
    not break construction."""
    schedule, records = synthetic_ring_records()
    partial = records[:5]
    graph = WaitingGraph(schedule, partial, mode="binding")
    assert graph.critical_path()


def test_networkx_export():
    schedule, records = synthetic_ring_records()
    graph = WaitingGraph(schedule, records, mode="full")
    import networkx as nx
    nx_graph = nx.DiGraph()
    nx_graph.add_nodes_from(vertex.label for vertex in graph.vertices)
    nx_graph.add_edges_from((edge.src.label, edge.dst.label)
                            for edge in graph.edges)
    assert nx_graph.number_of_nodes() == len(graph.vertices)
    assert nx_graph.number_of_edges() == len(graph.edges)
    assert nx.is_directed_acyclic_graph(nx_graph)


def test_fig4_shape_ring_reduce_scatter():
    """Fig. 4: a full waiting graph of a 4-node ring reduce-scatter has
    per step: 1 dark edge per flow, plus orange+blue into every non-
    first step."""
    schedule = ring4_schedule()
    records = []
    for node in schedule.nodes:
        for idx in range(3):
            records.append(make_record(node, idx, idx * 10.0,
                                       idx * 10.0 + 9.0))
    graph = WaitingGraph(schedule, records, mode="full")
    dark = sum(1 for e in graph.edges if e.kind is EdgeKind.EXECUTION)
    orange = sum(1 for e in graph.edges if e.kind is EdgeKind.INTRA_FLOW)
    blue = sum(1 for e in graph.edges if e.kind is EdgeKind.DATA_DEP)
    assert dark == 12          # every step
    assert orange == 8         # steps 1..2 of each of 4 flows
    assert blue == 8           # same: each non-first step has a data dep


# ----------------------------------------------------------------------
# one rule for a duplicate that differs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("prune_interval", [0, 1])
def test_slowest_record_replaced_by_a_faster_one(prune_interval):
    """Durations and the slowest flow per step describe the current
    record of each (node, step); windows only ever widen."""
    schedule = ring4_schedule()
    records = []
    for idx in range(3):
        for node in schedule.nodes:
            # n1 ends last; its step 1 was released by n4's step 0,
            # whose record never arrived, so the critical path stops
            # there and step 0 falls back to its slowest flow: n2
            if (node, idx) == ("n4", 0):
                continue
            took = {"n1": 6.0, "n2": 8.0}.get(node, 2.0)
            start = idx * 10.0 + (3.5 if node == "n1" else 0.0)
            records.append(make_record(
                node, idx, start, start + took,
                binding="recv" if (node, idx) == ("n1", 1)
                else "prev_send"))
    slow = records[1]
    assert (slow.node, slow.step_index) == ("n2", 0)
    corrected = dataclasses.replace(slow, end_time=slow.start_time + 1.0)
    stream = records + [corrected]

    graph = WaitingGraph(schedule, prune_interval=prune_interval)
    for record in records:
        graph.submit(record)
    assert graph.critical_flows_by_step() == {1: "n1", 2: "n1", 0: "n2"}
    if prune_interval:
        while graph.prune():
            pass
        assert ("n2", 0) not in graph.records       # pruned, and back
    graph.submit(corrected)
    reference = ReferenceWaitingGraph(schedule, stream)
    assert graph.critical_path() == reference.critical_path()
    assert graph.critical_flows_by_step() \
        == reference.critical_flows_by_step()
    assert graph.step_execution_times() \
        == reference.step_execution_times()
    assert graph.critical_flows_by_step()[0] == "n1"
    assert graph.durations[("n2", 0)] == 1.0
    assert graph.windows == reference.windows      # over both records
    assert graph.windows[0] == [0.0, 9.5]
