"""Ring schedules (Fig. 1a)."""

import pytest

from repro.collective.primitives import CollectiveOp, validate_schedule
from repro.collective.ring import (
    ring_allgather,
    ring_allreduce,
    ring_reduce_scatter,
)

NODES = ["n0", "n1", "n2", "n3"]


def test_allgather_step_count():
    schedule = ring_allgather(NODES, 1000)
    assert max(map(len, schedule.steps.values())) == 3  # N-1
    assert all(len(schedule.steps[n]) == 3 for n in NODES)


def test_every_step_sends_to_successor():
    schedule = ring_allgather(NODES, 1000)
    for i, node in enumerate(NODES):
        successor = NODES[(i + 1) % 4]
        assert all(s.peer == successor for s in schedule.steps[node])


def test_chunk_rotation():
    """Node i forwards chunk (i - j) mod N at step j (Fig. 1a)."""
    schedule = ring_allgather(NODES, 1000)
    assert [s.chunk_id for s in schedule.steps["n0"]] == [0, 3, 2]
    assert [s.chunk_id for s in schedule.steps["n2"]] == [2, 1, 0]


def test_first_step_has_no_data_dependency():
    schedule = ring_allgather(NODES, 1000)
    for node in NODES:
        assert schedule.steps[node][0].depends_on is None


def test_later_steps_depend_on_predecessor():
    schedule = ring_allgather(NODES, 1000)
    assert schedule.steps["n1"][1].depends_on == ("n0", 0)
    assert schedule.steps["n0"][2].depends_on == ("n3", 1)


def test_allgather_validates():
    validate_schedule(ring_allgather(NODES, 1000))


def test_reduce_scatter_same_shape():
    schedule = ring_reduce_scatter(NODES, 1000)
    assert schedule.op is CollectiveOp.REDUCE_SCATTER
    assert max(map(len, schedule.steps.values())) == 3
    validate_schedule(schedule)


def test_allreduce_doubles_steps():
    schedule = ring_allreduce(NODES, 1000)
    assert max(map(len, schedule.steps.values())) == 6  # 2(N-1)
    validate_schedule(schedule)


def test_allreduce_dependency_chain_unbroken():
    schedule = ring_allreduce(NODES, 1000)
    for node in NODES:
        for step in schedule.steps[node][1:]:
            assert step.depends_on is not None


def test_chunk_bytes_propagated():
    schedule = ring_allgather(NODES, 12345)
    assert all(s.size_bytes == 12345 for s in schedule.all_steps())


def test_two_node_ring():
    schedule = ring_allgather(["a", "b"], 100)
    assert max(map(len, schedule.steps.values())) == 1
    validate_schedule(schedule)


def test_ring_rejects_single_node():
    with pytest.raises(ValueError):
        ring_allgather(["solo"], 100)


def test_ring_rejects_duplicates():
    with pytest.raises(ValueError):
        ring_allgather(["a", "a", "b"], 100)


def test_large_ring_validates():
    nodes = [f"n{i}" for i in range(16)]
    validate_schedule(ring_allreduce(nodes, 100))
