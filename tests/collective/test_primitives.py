"""Decomposition data model and validation."""

import pytest

from repro.collective.primitives import (
    CollectiveOp,
    SendStep,
    StepSchedule,
    validate_schedule,
)


def two_node_schedule() -> StepSchedule:
    schedule = StepSchedule("test", CollectiveOp.CUSTOM, ["a", "b"])
    schedule.steps["a"] = [
        SendStep("a", 0, "b", 0, 100),
        SendStep("a", 1, "b", 1, 100, depends_on=("b", 0)),
    ]
    schedule.steps["b"] = [
        SendStep("b", 0, "a", 0, 100),
        SendStep("b", 1, "a", 1, 100, depends_on=("a", 0)),
    ]
    return schedule


def test_valid_schedule_passes():
    validate_schedule(two_node_schedule())


def test_step_label():
    step = SendStep("h3", 2, "h4", 1, 100)
    assert step.label == "F[h3]S2"


def test_step_rejects_self_send():
    with pytest.raises(ValueError):
        SendStep("a", 0, "a", 0, 100)


def test_step_rejects_zero_size():
    with pytest.raises(ValueError):
        SendStep("a", 0, "b", 0, 0)


def test_ssq_contents():
    schedule = two_node_schedule()
    assert schedule.send_targets("a") == ["b", "b"]


def test_rsq_contents():
    schedule = two_node_schedule()
    assert schedule.recv_sources("a") == [None, "b"]


def test_num_steps_and_total_bytes():
    schedule = two_node_schedule()
    assert max(map(len, schedule.steps.values())) == 2
    assert sum(step.size_bytes for step in schedule.all_steps()) == 400


def test_unknown_dependency_rejected():
    schedule = two_node_schedule()
    schedule.steps["a"][1] = SendStep("a", 1, "b", 1, 100,
                                      depends_on=("b", 9))
    with pytest.raises(ValueError, match="missing step"):
        validate_schedule(schedule)


def test_dependency_must_deliver_to_dependent():
    schedule = two_node_schedule()
    # a's step 1 claims to consume b's step 0, but we rewire b's step 0
    # to send elsewhere
    schedule.nodes.append("c")
    schedule.steps["c"] = []
    schedule.steps["b"][0] = SendStep("b", 0, "c", 0, 100)
    with pytest.raises(ValueError, match="not to"):
        validate_schedule(schedule)


def test_non_contiguous_indices_rejected():
    schedule = two_node_schedule()
    schedule.steps["a"][1] = SendStep("a", 5, "b", 1, 100)
    with pytest.raises(ValueError, match="non-contiguous"):
        validate_schedule(schedule)


def test_unknown_peer_rejected():
    schedule = two_node_schedule()
    schedule.steps["a"][0] = SendStep("a", 0, "ghost", 0, 100)
    with pytest.raises(ValueError, match="unknown node"):
        validate_schedule(schedule)


def test_misfiled_step_rejected():
    schedule = two_node_schedule()
    schedule.steps["a"][0] = SendStep("b", 0, "a", 0, 100)
    with pytest.raises(ValueError, match="wrong node"):
        validate_schedule(schedule)


def test_dependency_cycle_rejected():
    schedule = StepSchedule("cyclic", CollectiveOp.CUSTOM, ["a", "b"])
    schedule.steps["a"] = [SendStep("a", 0, "b", 0, 100,
                                    depends_on=("b", 0))]
    schedule.steps["b"] = [SendStep("b", 0, "a", 0, 100,
                                    depends_on=("a", 0))]
    with pytest.raises(ValueError, match="cycle"):
        validate_schedule(schedule)


def test_all_steps_iteration_order():
    schedule = two_node_schedule()
    labels = [s.label for s in schedule.all_steps()]
    assert labels == ["F[a]S0", "F[a]S1", "F[b]S0", "F[b]S1"]
