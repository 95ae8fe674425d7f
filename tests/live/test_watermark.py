"""Completion-time watermarking: in-order admission, late discards."""

import random

from repro.live.bus import TelemetryEvent
from repro.live.watermark import WatermarkBuffer


def ev(time: float, seq: int = 0) -> TelemetryEvent:
    return TelemetryEvent(kind="step_record", time=time, payload=None,
                          seq=seq)


def admitted(buffer: WatermarkBuffer, times) -> list:
    return [time for seq, time in enumerate(times)
            if buffer.admit(ev(time, seq))]


def test_passthrough_without_bound():
    buffer = WatermarkBuffer()
    assert admitted(buffer, [1.0, 2.0, 2.0, 3.0]) == [1.0, 2.0, 2.0, 3.0]
    assert buffer.late_discarded == 0
    assert buffer.buffered == 0


def test_late_beyond_bound_discarded_and_counted():
    buffer = WatermarkBuffer()
    out = admitted(buffer, [10.0, 20.0, 30.0, 5.0])
    assert buffer.late_discarded == 1
    assert out == [10.0, 20.0, 30.0]


def test_watermark_value():
    buffer = WatermarkBuffer()
    assert buffer.watermark == float("-inf")
    assert buffer.admit(ev(50))
    assert buffer.watermark == 50.0
    assert isinstance(buffer.watermark, float)
    assert not buffer.admit(ev(40.0, 1))  # older event does not regress it
    assert buffer.watermark == 50.0


def test_randomized_bounded_shuffle_sorts(seed=7):
    rng = random.Random(seed)
    times = [float(i) for i in range(200)]
    shuffled = []
    for i in range(0, len(times), 5):
        block = times[i:i + 5]
        rng.shuffle(block)
        shuffled.extend(block)
    buffer = WatermarkBuffer()
    out = admitted(buffer, shuffled)
    assert out == sorted(out)
    assert len(out) + buffer.late_discarded == 200
    assert buffer.late_discarded > 0
