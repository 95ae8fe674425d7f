"""Regression tests for the engine fast path.

These pin the behaviours the fast-path rewrite introduced or fixed:
a run sliced at ``until`` boundaries equals one run, cancelled events
must be accounted (and compacted away) instead of accumulating, the
same-time FIFO lane must preserve global (time, seq) order, and the
freelist must never recycle an event a caller still references.
"""

from __future__ import annotations

import pytest

from repro.simnet.engine import _COMPACT_MIN_PENDING, Simulator
from tests.simnet.test_engine import live_events


def build_workload(sim: Simulator, log: list) -> None:
    """A deterministic mix of heap events, same-time chains and
    cancellations (exercises every queue lane)."""

    def record(tag: str) -> None:
        log.append((sim.now, tag))

    def chain(tag: str, depth: int) -> None:
        record(tag)
        if depth > 0:
            # same-time follow-up: lands in the FIFO lane
            sim.schedule(0, chain, f"{tag}+", depth - 1)

    for i in range(10):
        sim.schedule(float(i + 1), record, f"t{i + 1}")
    sim.schedule(3.0, chain, "c3", 2)
    sim.schedule(7.0, chain, "c7", 1)
    doomed = [sim.schedule(float(i + 2), record, f"dead{i}")
              for i in range(5)]
    for event in doomed:
        event.cancel()


def test_sliced_run_equals_run_alone():
    log_plain: list = []
    sim_plain = Simulator()
    build_workload(sim_plain, log_plain)
    sim_plain.run()

    log_sliced: list = []
    sim_sliced = Simulator()
    build_workload(sim_sliced, log_sliced)
    # drive the same workload through runs that stop at until=
    steps = 0
    while sim_sliced._heap or sim_sliced._fifo:
        sim_sliced.run(until=sim_sliced.now + 0.5)
        steps += 1
        assert steps < 1000, "sliced run failed to make progress"

    assert log_sliced == log_plain
    assert sim_sliced.events_processed == sim_plain.events_processed
    assert live_events(sim_sliced) == 0


def test_pending_events_reports_live_events_only():
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(8)]
    assert live_events(sim) == 8
    for event in events[:3]:
        event.cancel()
    assert live_events(sim) == 5
    sim.run()
    assert live_events(sim) == 0
    assert sim.events_processed == 5


def test_cancel_twice_counts_once():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    event.cancel()
    assert live_events(sim) == 1


def test_cancel_after_fire_is_accounting_neutral():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    event.cancel()  # late cancel, common in stop() paths
    assert live_events(sim) == 1
    sim.run()
    assert sim.events_processed == 2


def test_compaction_bounds_cancelled_growth():
    sim = Simulator()
    keep = 4
    total = 4 * _COMPACT_MIN_PENDING
    events = [sim.schedule(float(i + 1), lambda: None)
              for i in range(total)]
    for event in events[keep:]:
        event.cancel()
    # the dead majority was compacted away, not merely marked
    assert len(sim._heap) < total // 2
    assert live_events(sim) == keep
    sim.run()
    assert sim.events_processed == keep


def test_compaction_preserves_execution_order():
    log: list = []
    sim = Simulator()
    events = []
    for i in range(2 * _COMPACT_MIN_PENDING):
        time = float(i + 1)
        events.append(
            sim.schedule(time, lambda t=time: log.append(t)))
    survivors = [e.time for i, e in enumerate(events) if i % 3 == 0]
    for i, event in enumerate(events):
        if i % 3 != 0:
            event.cancel()
    sim.run()
    assert log == survivors


def test_same_time_fifo_preserves_seq_order():
    log: list = []
    sim = Simulator()

    def spawn() -> None:
        log.append("spawn")
        # scheduled *at* now, after `later` was heap-scheduled: the
        # heap tie must still run first (it has the smaller seq)
        sim.schedule(0, log.append, "fifo")

    sim.schedule(5.0, spawn)
    sim.schedule(5.0, log.append, "heap-tie")
    sim.run()
    assert log == ["spawn", "heap-tie", "fifo"]


def test_freelist_never_recycles_referenced_events():
    sim = Simulator()
    held = sim.schedule(1.0, lambda: None)
    sim.run(until=2.0)
    # the engine saw our reference and must not have recycled `held`
    assert not sim._free
    replacement = sim.schedule(1.0, lambda: None)
    assert replacement is not held
    held.cancel()  # must be a harmless no-op on the fired event
    assert live_events(sim) == 1


def test_freelist_recycles_unreferenced_events():
    sim = Simulator()
    for _ in range(3):
        sim.schedule(1.0, lambda: None)
    sim.run(until=2.0)
    assert len(sim._free) == 3
    # recycled events come back with fresh identity-relevant state
    event = sim.schedule(4.0, lambda: None)
    assert not event.cancelled
    assert event.time == sim.now + 4.0
    assert len(sim._free) == 2


def test_event_observer_sees_every_executed_event():
    seen: list = []
    sim = Simulator()
    sim.event_observer = lambda time, seq, callback: \
        seen.append((time, seq))
    build_workload(sim, [])
    sim.run()
    assert len(seen) == sim.events_processed
    assert seen == sorted(seen), "observer stream must be (time, seq) " \
                                 "ordered"


def test_schedule_in_past_still_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)
