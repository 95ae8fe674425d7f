"""Property-based tests (hypothesis) on core data structures and
invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collective.halving_doubling import halving_doubling_allreduce
from repro.collective.primitives import validate_schedule
from repro.collective.ring import ring_allgather, ring_allreduce
from repro.collective.runtime import StepRecord
from repro.core.waiting_graph import WaitingGraph
from repro.simnet.engine import Simulator
from repro.simnet.packet import FlowKey
from repro.simnet.routing import EcmpRouting
from repro.simnet.telemetry import WINDOW_NS, WindowedCounter
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import serialization_delay


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False),
                min_size=1, max_size=60))
def test_engine_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e6,
                                    allow_nan=False),
                          st.booleans()), max_size=40))
def test_engine_cancelled_events_never_fire(items):
    sim = Simulator()
    fired = []
    events = []
    for i, (delay, cancel) in enumerate(items):
        events.append((sim.schedule(delay, fired.append, i), cancel))
    for event, cancel in events:
        if cancel:
            event.cancel()
    sim.run()
    expected = {i for i, (_, cancel) in enumerate(items) if not cancel}
    assert set(fired) == expected


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------
@given(st.floats(min_value=1, max_value=1e9),
       st.floats(min_value=1e6, max_value=1e12))
def test_serialization_delay_positive_and_linear(size, rate):
    single = serialization_delay(size, rate)
    double = serialization_delay(2 * size, rate)
    assert single > 0
    assert math.isclose(double, 2 * single, rel_tol=1e-9)


# ----------------------------------------------------------------------
# windowed counters
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(st.floats(min_value=0, max_value=5 * WINDOW_NS),
                          st.sampled_from("abc"),
                          st.integers(min_value=1, max_value=10)),
                max_size=50))
def test_windowed_counter_never_negative_and_bounded(updates):
    counter = WindowedCounter()
    updates = sorted(updates, key=lambda u: u[0])
    totals = {}
    for time, key, delta in updates:
        counter.add(time, key, delta)
        totals[key] = totals.get(key, 0) + delta
    now = updates[-1][0] if updates else 0
    snapshot = counter.snapshot(now)
    for key, value in snapshot.items():
        assert 0 < value <= totals.get(key, 0)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                max_size=20))
def test_windowed_counter_exact_within_single_window(deltas):
    counter = WindowedCounter()
    for i, delta in enumerate(deltas):
        counter.add(float(i), "k", delta)
    assert counter.snapshot(float(len(deltas))) == {"k": sum(deltas)}


# ----------------------------------------------------------------------
# collective schedules
# ----------------------------------------------------------------------
@given(st.integers(min_value=2, max_value=24),
       st.integers(min_value=1, max_value=10**9))
def test_ring_schedules_always_validate(n, chunk):
    nodes = [f"n{i}" for i in range(n)]
    validate_schedule(ring_allgather(nodes, chunk))
    validate_schedule(ring_allreduce(nodes, chunk))


@given(st.sampled_from([2, 4, 8, 16, 32]),
       st.integers(min_value=1, max_value=10**9))
def test_halving_doubling_always_validates(n, size):
    nodes = [f"n{i}" for i in range(n)]
    schedule = halving_doubling_allreduce(nodes, size)
    validate_schedule(schedule)
    assert max(map(len, schedule.steps.values())) == 2 * int(math.log2(n))


@given(st.integers(min_value=2, max_value=16))
def test_ring_every_chunk_visits_every_node(n):
    """AllGather correctness: by the end, node i has forwarded each of
    the n-1 foreign chunks exactly once."""
    nodes = [f"n{i}" for i in range(n)]
    schedule = ring_allgather(nodes, 100)
    for i, node in enumerate(nodes):
        chunks = [s.chunk_id for s in schedule.steps[node]]
        assert len(set(chunks)) == n - 1
        assert chunks[0] == i  # starts with its own chunk


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=15),
       st.integers(min_value=0, max_value=15),
       st.integers(min_value=1, max_value=60_000))
@settings(max_examples=40)
def test_fat_tree_paths_are_simple_and_bounded(a, b, port):
    if a == b:
        return
    routing = EcmpRouting(build_fat_tree(4))
    key = FlowKey(f"h{a}", f"h{b}", port, 4791)
    path = routing.path(key)
    assert len(path) == len(set(path)), "path must be loop-free"
    assert len(path) <= 7  # host-edge-agg-core-agg-edge-host


# ----------------------------------------------------------------------
# waiting graph
# ----------------------------------------------------------------------
@st.composite
def ring_records(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    nodes = [f"n{i}" for i in range(n)]
    schedule = ring_allgather(nodes, 100)
    records = []
    clock = {node: 0.0 for node in nodes}
    for idx in range(n - 1):
        for node in nodes:
            duration = draw(st.floats(min_value=1, max_value=100))
            gap = draw(st.floats(min_value=0, max_value=10))
            start = clock[node] + gap
            end = start + duration
            clock[node] = end
            records.append(StepRecord(
                node=node, step_index=idx,
                flow_key=FlowKey(node, "x", idx, 4791),
                size_bytes=100, start_time=start, end_time=end,
                recv_source=None,
                binding_dependency=draw(st.sampled_from(
                    [None, "prev_send"]))))
    return schedule, records


@given(ring_records())
@settings(max_examples=30)
def test_critical_path_ends_at_latest_record(data):
    schedule, records = data
    graph = WaitingGraph(schedule, records)
    path = graph.critical_path()
    assert path
    latest = max(records, key=lambda r: r.end_time)
    assert path[-1].node == latest.node
    assert path[-1].step_index == latest.step_index
    # path is time-ordered and causally consistent
    for earlier, later in zip(path, path[1:]):
        assert earlier.end_time <= later.end_time


@given(ring_records())
@settings(max_examples=30)
def test_prune_never_removes_latest_end(data):
    schedule, records = data
    graph = WaitingGraph(schedule, records)
    graph.prune_unwaited()
    latest = max(records, key=lambda r: r.end_time)
    from repro.core.waiting_graph import WaitingVertex
    assert WaitingVertex(latest.node, latest.step_index, "end") \
        in graph.vertices


@given(ring_records())
@settings(max_examples=20)
def test_full_waiting_graph_is_acyclic(data):
    import networkx as nx

    schedule, records = data
    graph = WaitingGraph(schedule, records, mode="full")
    assert nx.is_directed_acyclic_graph(nx.DiGraph(
        (edge.src.label, edge.dst.label) for edge in graph.edges))


# ----------------------------------------------------------------------
# flow keys
# ----------------------------------------------------------------------
@given(st.text(min_size=1, max_size=5), st.text(min_size=1, max_size=5),
       st.integers(min_value=0, max_value=65535),
       st.integers(min_value=0, max_value=65535))
def test_flow_key_reverse_is_involution(src, dst, sport, dport):
    key = FlowKey(src, dst, sport, dport)
    assert key.reversed().reversed() == key
