"""Discrete-event engine semantics."""

import pytest

from repro.checks.sanitizer import InvariantViolation
from repro.simnet.engine import Simulator


def live_events(sim: Simulator) -> int:
    """The live (non-cancelled) events still queued."""
    return len(sim._heap) + len(sim._fifo) - sim._cancelled_pending


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(5.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(42.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42.5]
    assert sim.now == 42.5


def test_nested_scheduling_from_callback():
    sim = Simulator()
    hits = []

    def fire():
        hits.append(sim.now)
        if len(hits) < 3:
            sim.schedule(10, fire)

    sim.schedule(0, fire)
    sim.run()
    assert hits == [0.0, 10.0, 20.0]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    hits = []
    event = sim.schedule(10, hits.append, "x")
    event.cancel()
    sim.run()
    assert hits == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert sim.events_processed == 0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    hits = []
    sim.schedule(10, hits.append, "early")
    sim.schedule(100, hits.append, "late")
    sim.run(until=50)
    assert hits == ["early"]
    assert sim.now == 50  # clock advanced to the until bound
    sim.run()
    assert hits == ["early", "late"]


def test_run_until_advances_clock_even_when_drained():
    sim = Simulator()
    sim.run(until=1000)
    assert sim.now == 1000


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    hits = []
    sim.schedule_at(77.0, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [77.0]


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(50, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(10, lambda: None)


def test_stop_halts_loop():
    sim = Simulator()
    hits = []

    def first():
        hits.append("a")
        sim.stop()

    sim.schedule(10, first)
    sim.schedule(20, hits.append, "b")
    sim.run()
    assert hits == ["a"]


def test_max_events_bound():
    sim = Simulator()
    for i in range(10):
        sim.schedule(i, lambda: None)
    sim.run(max_events=4)
    assert sim.events_processed == 4


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_callback_args_passed_through():
    sim = Simulator()
    got = []
    sim.schedule(1, lambda a, b: got.append((a, b)), 1, "two")
    sim.run()
    assert got == [(1, "two")]


def test_deterministic_across_instances():
    def trace():
        sim = Simulator()
        log = []
        sim.schedule(3, log.append, "x")
        sim.schedule(3, log.append, "y")
        sim.schedule(1, lambda: sim.schedule(2, log.append, "z"))
        sim.run()
        return log

    assert trace() == trace()


def test_post_runs_where_schedule_would_and_returns_no_handle():
    sim = Simulator()
    order = []
    sim.schedule(5.0, order.append, "a")
    assert sim.post(5.0, order.append, "b") is None
    sim.schedule(5.0, order.append, "c")
    sim.post(1.0, order.append, "first")
    assert live_events(sim) == 4
    sim.run()
    assert order == ["first", "a", "b", "c"]
    assert sim.events_processed == 4


NAN = float("nan")


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("verb", ["schedule", "schedule_at", "post"])
def test_nan_is_rejected_at_schedule_time(verb, sanitize):
    """``nan < 0`` and ``nan < now`` are both False: an unchecked NaN
    runs at an arbitrary place in the order with the clock reading NaN,
    and the sanitizer then blames the callback for moving the clock."""
    sim = Simulator(sanitize=sanitize)
    order = []
    sim.schedule(5.0, order.append, "b")
    with pytest.raises(ValueError, match="nan") as excinfo:
        getattr(sim, verb)(NAN, order.append, "nan")
    if sanitize:
        assert isinstance(excinfo.value, InvariantViolation)
        assert excinfo.value.kind == "schedule_nan"
    else:
        assert not isinstance(excinfo.value, InvariantViolation)
    sim.schedule(1.0, order.append, "a")
    sim.run()
    assert order == ["a", "b"]
    assert sim.now == 5.0
    assert live_events(sim) == 0


@pytest.mark.parametrize("sanitize", [False, True])
def test_negative_post_delay_is_rejected(sanitize):
    sim = Simulator(sanitize=sanitize)
    with pytest.raises(ValueError, match="-1.0") as excinfo:
        sim.post(-1.0, lambda: None)
    if sanitize:
        assert excinfo.value.kind == "schedule_in_past"
    assert live_events(sim) == 0
