"""Percentiles, span self-time arithmetic and the round loop."""

import pytest

from benchmarks.e2e import harness
from benchmarks.e2e.harness import Round, Span, Tracer


def test_percentile_nearest_rank_hand_computed():
    values = [15, 20, 35, 40, 50]
    assert harness.percentile(values, 5) == 15
    assert harness.percentile(values, 30) == 20
    assert harness.percentile(values, 40) == 20
    assert harness.percentile(values, 50) == 35
    assert harness.percentile(values, 100) == 50
    assert harness.percentile([7], 99) == 7
    # order of the samples does not matter
    assert harness.percentile([50, 15, 40, 20, 35], 50) == 35


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        harness.percentile([], 50)
    with pytest.raises(ValueError):
        harness.percentile([1, 2], 0)
    with pytest.raises(ValueError):
        harness.percentile([1, 2], 101)


def test_tail_needs_ten_samples_beyond_it():
    thousand = list(range(1000))
    assert harness.tail_percentile(thousand, 99) == 989   # 10 beyond
    with pytest.raises(ValueError, match="only 9 beyond"):
        harness.tail_percentile(list(range(999)), 99)
    # 256 tenants carry a p95 (12 beyond) but not a p99 (2 beyond)
    tenants = list(range(256))
    assert harness.tail_percentile(tenants, 95) == 243
    with pytest.raises(ValueError):
        harness.tail_percentile(tenants, 99)


def test_best_seconds_takes_each_slice_at_its_best_repeat():
    samples = [("a", (1.0, 5.0, 2.0)), ("b", (4.0,)),
               ("a", (3.0, 1.0, 2.5)), ("a", (2.0, 2.0, 1.0))]
    # a: min per slice = (1, 1, 1); b has a single repeat
    assert harness.best_seconds(samples) == {"a": 3.0, "b": 4.0}
    with pytest.raises(ValueError):   # repeats must be cut alike
        harness.best_seconds([("a", (1.0, 2.0)), ("a", (1.0,))])


def test_end_to_end_metrics_from_untraced_rounds_only():
    ctx = harness.Context(seed=1, seconds=0.0, workdir=None,
                          tracer=None, started=10.0)
    noisy = Round(verdict_s=[("x", (2.0, 2.0)), ("y", (9.0,))],
                  served=[("x", 3, (4.0,))])
    clean = Round(verdict_s=[("x", (1.0, 3.0)), ("y", (5.0,))],
                  served=[("x", 3, (2.0,))])
    traced = Round(verdict_s=[("x", (0.1, 0.1))],
                   served=[("x", 3, (0.1,))], traced=True)
    metrics = harness.end_to_end(ctx, 12.5, [noisy, clean, traced])
    assert metrics["setup_s"] == (2.5, 1)
    # x: 1 + 2 = 3, y: 5 -> median 4; 3 verdicts in the best 2 s
    assert metrics["verdict_s_p50"] == (4.0, 4)
    assert metrics["verdicts_per_s"] == (1.5, 6)
    assert metrics["peak_rss_mb"][0] > 0


def spans_fixture():
    #   root [0, 10] bench
    #     a  [1, 4]  simnet
    #       a1 [2, 3] core
    #     b  [5, 9]  simnet
    #   other [20, 21] live        (not under root)
    return [
        Span(0, "root", "bench", "x", None, 0.0, 10.0),
        Span(1, "a", "simnet", "x", 0, 1.0, 4.0),
        Span(2, "a1", "core", "x", 1, 2.0, 3.0),
        Span(3, "b", "simnet", "x", 0, 5.0, 9.0),
        Span(4, "other", "live", "y", None, 20.0, 21.0),
    ]


def test_self_time_is_duration_minus_direct_children():
    own = harness.self_times(spans_fixture())
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.0}


def test_layer_self_times_partition_the_root():
    layers = harness.layer_self_times(spans_fixture(), root=0)
    assert layers == {"bench": 3.0, "simnet": 6.0, "core": 1.0}
    assert sum(layers.values()) == 10.0      # the root's duration


def test_tracer_nests_by_call_order_and_null_tracer_records_nothing():
    tracer = Tracer()
    with tracer.span("outer", "bench", "op") as outer:
        with tracer.span("inner", "core", "op") as inner:
            pass
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    late = tracer.add("phase", "fleet", 1.0, 2.0, outer.id, "op")
    assert tracer.spans[late.id] is late and late.duration == 1.0

    null = harness.NullTracer()
    with null.span("x", "bench") as nothing:
        assert nothing is None
    assert list(null.spans) == []


def test_timed_accumulates_with_tracing_on_or_off():
    for tracer in (Tracer(), harness.NullTracer()):
        sink = {}
        for _ in range(2):
            with harness.timed(tracer, "core.analyze", "core", "op", sink):
                pass
        assert set(sink) == {"core.analyze"} and sink["core.analyze"] >= 0


def test_rounds_alternate_untraced_then_traced():
    seen = []

    def one_round(index, tracer):
        seen.append(type(tracer).__name__)
        with tracer.span("work", "core"):
            pass
        return Round(wall_s=1.0, attempted=1)

    tracer = Tracer()
    rounds = harness.run_rounds(one_round, 0.0, tracer)
    assert seen == ["NullTracer", "Tracer"]
    assert [r.traced for r in rounds] == [False, True]
    assert rounds[1].root == 0 and tracer.spans[1].parent == 0
    # tracing off: a single untraced round is enough
    assert len(harness.run_rounds(one_round, 0.0, None)) == 1


def test_span_sum_check_raises_past_five_percent():
    tracer = Tracer()
    with tracer.span("bench.round", "bench") as root:
        pass
    good = Round(traced=True, root=root.id,
                 extra={"outer_wall_s": root.duration})
    assert harness.check_span_sum(tracer.spans, [good]) < 1e-9
    bad = Round(traced=True, root=root.id,
                extra={"outer_wall_s": root.duration * 2 + 1.0})
    with pytest.raises(AssertionError, match="apart"):
        harness.check_span_sum(tracer.spans, [bad])
