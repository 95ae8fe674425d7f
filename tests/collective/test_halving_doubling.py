"""Halving-and-doubling schedules (Fig. 1b)."""

import pytest

from repro.collective.primitives import validate_schedule
from repro.collective.halving_doubling import (
    halving_doubling_allgather,
    halving_doubling_allreduce,
    halving_doubling_reduce_scatter,
)

NODES8 = [f"n{i}" for i in range(8)]


def test_reduce_scatter_step_count():
    schedule = halving_doubling_reduce_scatter(NODES8, 8000)
    assert max(map(len, schedule.steps.values())) == 3  # log2(8)


def test_destination_changes_every_step():
    """The paper's motivating property: F0's destination shifts from
    distance N/2 to N/4 to ... (n0 -> n4, then n2, then n1)."""
    schedule = halving_doubling_reduce_scatter(NODES8, 8000)
    peers = [s.peer for s in schedule.steps["n0"]]
    assert peers == ["n4", "n2", "n1"]


def test_sizes_halve_in_reduce_scatter():
    schedule = halving_doubling_reduce_scatter(NODES8, 8000)
    sizes = [s.size_bytes for s in schedule.steps["n0"]]
    assert sizes == [4000, 2000, 1000]


def test_sizes_double_in_allgather():
    schedule = halving_doubling_allgather(NODES8, 8000)
    sizes = [s.size_bytes for s in schedule.steps["n0"]]
    assert sizes == [1000, 2000, 4000]


def test_allgather_distances_double():
    schedule = halving_doubling_allgather(NODES8, 8000)
    peers = [s.peer for s in schedule.steps["n0"]]
    assert peers == ["n1", "n2", "n4"]


def test_exchange_is_symmetric():
    """If a sends to b at step j, b sends to a at step j."""
    schedule = halving_doubling_reduce_scatter(NODES8, 8000)
    for node in NODES8:
        for step in schedule.steps[node]:
            partner_step = schedule.steps[step.peer][step.step_index]
            assert partner_step.peer == node


def test_dependencies_reference_previous_partner():
    schedule = halving_doubling_reduce_scatter(NODES8, 8000)
    step = schedule.steps["n0"][1]
    assert step.depends_on == ("n4", 0)


def test_all_variants_validate():
    for factory in (halving_doubling_reduce_scatter,
                    halving_doubling_allgather,
                    halving_doubling_allreduce):
        validate_schedule(factory(NODES8, 8000))


def test_allreduce_concatenates_phases():
    schedule = halving_doubling_allreduce(NODES8, 8000)
    assert max(map(len, schedule.steps.values())) == 6  # 2 * log2(8)
    peers = [s.peer for s in schedule.steps["n0"]]
    assert peers == ["n4", "n2", "n1", "n1", "n2", "n4"]


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        halving_doubling_allreduce([f"n{i}" for i in range(6)], 100)


def test_rejects_single_node():
    with pytest.raises(ValueError):
        halving_doubling_allreduce(["n0"], 100)


def test_rejects_duplicates():
    with pytest.raises(ValueError):
        halving_doubling_allreduce(["a", "a", "b", "c"], 100)


def test_two_nodes():
    schedule = halving_doubling_allreduce(["a", "b"], 1000)
    assert max(map(len, schedule.steps.values())) == 2
    validate_schedule(schedule)


def test_minimum_size_floor():
    schedule = halving_doubling_reduce_scatter(NODES8, 4)
    assert all(s.size_bytes >= 1 for s in schedule.all_steps())
