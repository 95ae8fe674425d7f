"""Incremental (streaming) waiting-graph construction."""

import random

from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime, StepRecord
from repro.core.waiting_graph import WaitingGraph
from repro.simnet.network import Network
from repro.simnet.packet import FlowKey
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms
from tests.core.test_waiting_graph import ReferenceWaitingGraph

NODES = ["n0", "n1", "n2", "n3"]


def make_records(slow_node="n2", slow_factor=5.0):
    """Synthetic 3-step ring records with one slow flow."""
    schedule = ring_allgather(NODES, 1000)
    records = []
    clock = {n: 0.0 for n in NODES}
    for idx in range(3):
        for node in NODES:
            duration = 50.0 * (slow_factor if node == slow_node else 1.0)
            start = clock[node]
            end = start + duration
            clock[node] = end
            records.append(StepRecord(
                node=node, step_index=idx,
                flow_key=FlowKey(node, "x", idx, 4791),
                size_bytes=1000, start_time=start, end_time=end,
                recv_source=None, binding_dependency="prev_send"))
    return schedule, records


def test_matches_batch_critical_path():
    schedule, records = make_records()
    incremental = WaitingGraph(schedule, prune_interval=4)
    for record in records:
        incremental.submit(record)
    batch = ReferenceWaitingGraph(schedule, records)
    inc_path = [(e.node, e.step_index)
                for e in incremental.critical_path()]
    batch_path = [(e.node, e.step_index) for e in batch.critical_path()]
    assert inc_path == batch_path


def test_out_of_order_submission_tolerated():
    schedule, records = make_records()
    shuffled = list(records)
    random.Random(3).shuffle(shuffled)
    incremental = WaitingGraph(schedule, prune_interval=0)
    for record in shuffled:
        incremental.submit(record)
    batch = ReferenceWaitingGraph(schedule, records)
    assert [(e.node, e.step_index)
            for e in incremental.critical_path()] == \
        [(e.node, e.step_index) for e in batch.critical_path()]


def test_pruning_reduces_memory():
    schedule, records = make_records()
    incremental = WaitingGraph(schedule, prune_interval=2)
    for record in records:
        incremental.submit(record)
    incremental.prune()
    assert incremental.pruned_total > 0
    assert len(incremental.records) < len(records)


def test_pruning_keeps_critical_chain():
    schedule, records = make_records(slow_node="n1")
    incremental = WaitingGraph(schedule, prune_interval=2)
    for record in records:
        incremental.submit(record)
    incremental.prune()
    path = incremental.critical_path()
    assert path
    assert path[-1].node == "n1"  # the slow flow ends last
    # the chain has no time travel
    ends = [e.end_time for e in path]
    assert ends == sorted(ends)


def test_never_prunes_records_still_depended_on():
    schedule, records = make_records()
    incremental = WaitingGraph(schedule, prune_interval=1)
    # feed only step 0: every step 1 still needs these
    for record in records[:4]:
        incremental.submit(record)
    incremental.prune()
    assert len(incremental.records) == 4


def test_live_snapshot_midstream():
    schedule, records = make_records()
    incremental = WaitingGraph(schedule, prune_interval=16)
    for record in records[:6]:
        incremental.submit(record)
    assert incremental.critical_path() == ReferenceWaitingGraph(
        schedule, records[:6]).critical_path() != []
    # the Fig. 4 view is there for the asking, over what is retained
    assert len(incremental.vertices) == 2 * len(incremental.records)


def test_against_real_simulation():
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(
        net, ring_allgather(["h0", "h4", "h8", "h12"], 150_000))
    incremental = WaitingGraph(runtime.schedule,
                               prune_interval=4)
    runtime.step_end_listeners.append(incremental.submit)
    runtime.start()
    net.create_flow("h1", "h4", 2_000_000).start()
    net.run_until_quiet(max_time=ms(100))
    assert runtime.completed
    batch = ReferenceWaitingGraph(runtime.schedule, runtime.records)
    assert [(e.node, e.step_index)
            for e in incremental.critical_path()] == \
        [(e.node, e.step_index) for e in batch.critical_path()]
