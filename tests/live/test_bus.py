"""Event bus: FIFO order and depth counters."""

from repro.live.bus import EventBus, TelemetryEvent


def ev(seq: int, time: float = 0.0) -> TelemetryEvent:
    return TelemetryEvent(kind="step_record", time=time,
                          payload=None, seq=seq)


def test_fifo_order():
    bus = EventBus()
    for i in range(5):
        bus.publish(ev(i))
    assert [e.seq for e in bus.drain()] == [0, 1, 2, 3, 4]
    assert bus.stats.published == 5
    assert bus.stats.consumed == 5


def test_high_watermark_tracks_depth():
    bus = EventBus()
    for i in range(7):
        bus.publish(ev(i))
    list(bus.drain(limit=5))
    bus.publish(ev(7))
    assert bus.stats.high_watermark == 7


def test_drain_limit():
    bus = EventBus()
    for i in range(6):
        bus.publish(ev(i))
    assert [e.seq for e in bus.drain(limit=2)] == [0, 1]
    assert len(bus) == 4
    assert [e.seq for e in bus.drain()] == [2, 3, 4, 5]
    assert len(bus) == 0
