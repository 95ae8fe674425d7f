"""Incremental waiting graph on non-ring decompositions."""

from repro.collective.extra import binomial_broadcast, pipeline_broadcast
from repro.collective.halving_doubling import halving_doubling_allreduce
from repro.collective.runtime import CollectiveRuntime
from repro.core.waiting_graph import WaitingGraph
from repro.simnet.network import Network
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms
from tests.core.test_waiting_graph import ReferenceWaitingGraph

NODES = ["h0", "h4", "h8", "h12"]


def run_and_compare(schedule, background=None):
    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(net, schedule)
    incremental = WaitingGraph(runtime.schedule,
                               prune_interval=3)
    runtime.step_end_listeners.append(incremental.submit)
    runtime.start()
    if background:
        for src, dst, size in background:
            net.create_flow(src, dst, size).start()
    net.run_until_quiet(max_time=ms(200))
    assert runtime.completed
    batch = ReferenceWaitingGraph(runtime.schedule, runtime.records)
    inc_path = [(e.node, e.step_index)
                for e in incremental.critical_path()]
    batch_path = [(e.node, e.step_index)
                  for e in batch.critical_path()]
    return inc_path, batch_path


def test_incremental_matches_batch_on_halving_doubling():
    inc, batch = run_and_compare(
        halving_doubling_allreduce(NODES, 300_000))
    assert inc == batch


def test_incremental_matches_batch_on_hd_with_contention():
    inc, batch = run_and_compare(
        halving_doubling_allreduce(NODES, 300_000),
        background=[("h1", "h4", 2_000_000), ("h5", "h8", 2_000_000)])
    assert inc == batch


def test_incremental_matches_batch_on_binomial_broadcast():
    inc, batch = run_and_compare(binomial_broadcast(NODES, 400_000))
    assert inc == batch


def test_incremental_matches_batch_on_pipeline():
    inc, batch = run_and_compare(
        pipeline_broadcast(NODES, 400_000, segments=5))
    assert inc == batch
