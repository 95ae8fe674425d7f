"""Pipeline self-observability primitives."""

import pytest

from repro.live.metrics import (
    BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)


def test_counter_monotonic():
    counter = Counter("c")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_moves_both_ways():
    gauge = Gauge("g")
    gauge.set(10)
    gauge.set(3.5)
    assert gauge.value == 3.5


def test_histogram_stats():
    hist = Histogram("h")
    # BOUNDS are 1, 2, 4, 8, ... µs
    for value in [0.5e-6, 2e-6, 3e-6, 50e-6, 500.0]:
        hist.observe(value)
    assert hist.total == 5
    assert hist.min == 0.5e-6
    assert hist.max == 500.0
    assert hist.sum == pytest.approx(500.0000555)
    # counts[i] holds values <= BOUNDS[i]; the last slot overflows
    assert hist.counts == [1, 1, 1, 0, 0, 0, 1] + [0] * 17 + [1]
    assert len(hist.counts) == len(BOUNDS) + 1


def test_histogram_percentiles_ordered():
    hist = Histogram("h")
    for i in range(1, 1001):
        hist.observe(i / 1000.0)
    p50, p90, p99 = (hist.percentile(p) for p in (50, 90, 99))
    assert hist.min <= p50 <= p90 <= p99 <= hist.max
    # log buckets are coarse; just require the right ballpark
    assert 0.2 <= p50 <= 0.8
    assert p99 >= 0.5


def test_empty_histogram_is_quiet():
    hist = Histogram("h")
    assert hist.percentile(99) == 0.0
    assert hist.total == 0


def test_registry_exposition_carries_every_metric():
    registry = MetricsRegistry()
    registry.counter("events", "total events").inc(7)
    registry.gauge("depth").set(2)
    registry.histogram("lat").observe(0.25)
    text = render_prometheus(registry)
    assert "# TYPE events counter\nevents 7\n" in text
    assert "# TYPE depth gauge\ndepth 2\n" in text
    assert "lat_count 1\n" in text
    assert registry.names() == ["depth", "events", "lat"]


def test_registry_rejects_duplicates():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError, match="duplicate"):
        registry.gauge("x")


def test_render_text_view():
    registry = MetricsRegistry()
    registry.counter("live_events_total", "all events").inc(42)
    registry.histogram("live_latency_seconds").observe(0.001)
    text = render_prometheus(registry)
    assert "# HELP live_events_total all events" in text
    assert "# TYPE live_events_total counter" in text
    assert "\nlive_events_total 42\n" in text
    assert "# TYPE live_latency_seconds histogram" in text
    assert 'live_latency_seconds_bucket{le="+Inf"} 1' in text
    assert "live_latency_seconds_sum 0.001" in text


# ----------------------------------------------------------------------
# labeled metrics (Prometheus-style exposition names)
# ----------------------------------------------------------------------
def test_full_name_formats_sorted_labels():
    from repro.live.metrics import full_name

    assert full_name("x_total", None) == "x_total"
    assert full_name("x_total", {"b": "2", "a": "1"}) == \
        'x_total{a="1",b="2"}'


def test_labeled_counters_coexist_in_registry():
    registry = MetricsRegistry()
    oldest = registry.counter("dropped_total", "d",
                              labels={"policy": "drop-oldest"})
    newest = registry.counter("dropped_total", "d",
                              labels={"policy": "drop-newest"})
    oldest.inc(3)
    newest.inc(4)
    assert registry['dropped_total{policy="drop-oldest"}'].value == 3
    assert registry['dropped_total{policy="drop-newest"}'].value == 4
    assert registry['dropped_total{policy="drop-oldest"}'].labels == \
        {"policy": "drop-oldest"}
    # same name + same labels is still a duplicate
    with pytest.raises(ValueError):
        registry.counter("dropped_total",
                         labels={"policy": "drop-oldest"})


def test_label_values_escape_reserved_characters():
    from repro.live.metrics import escape_label_value, full_name

    assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
    # backslash first: the escapes it introduces stay single
    assert escape_label_value('\\n') == '\\\\n'
    assert escape_label_value("plain") == "plain"
    assert full_name("m", {"tenant": 'say "hi"\n'}) == \
        'm{tenant="say \\"hi\\"\\n"}'


def test_help_text_escapes_backslash_and_newline():
    from repro.live.metrics import escape_help

    assert escape_help("two\nlines \\ slash") == \
        "two\\nlines \\\\ slash"
    assert escape_help('quotes stay "raw"') == 'quotes stay "raw"'


# ----------------------------------------------------------------------
# percentile edge cases (each documented in Histogram.percentile)
# ----------------------------------------------------------------------
def test_percentile_rejects_out_of_range():
    hist = Histogram("h")
    hist.observe(1.0)
    for bad in (-0.1, 100.1, 500):
        with pytest.raises(ValueError, match="outside"):
            hist.percentile(bad)


def test_percentile_endpoints_are_exact_min_max():
    hist = Histogram("h")
    for value in (0.37e-6, 2e-6, 7.5e-6):
        hist.observe(value)
    assert hist.percentile(0) == 0.37e-6
    assert hist.percentile(100) == 7.5e-6


def test_empty_histogram_percentile_endpoints():
    hist = Histogram("h")
    assert hist.percentile(0) == 0.0
    assert hist.percentile(100) == 0.0


def test_percentile_single_observation_is_that_value():
    hist = Histogram("h")
    hist.observe(3e-6)
    for p in (1, 50, 99):
        assert 1e-6 <= hist.percentile(p) <= 3e-6
    assert hist.percentile(100) == 3e-6


def test_percentile_all_overflow_stays_in_observed_range():
    hist = Histogram("h")
    for value in (50.0, 60.0, 70.0):    # all above BOUNDS[-1]
        hist.observe(value)
    for p in (10, 50, 90, 99):
        estimate = hist.percentile(p)
        assert 50.0 <= estimate <= 70.0, (p, estimate)


def test_percentile_never_escapes_observed_bounds():
    hist = Histogram("h")
    for value in (1.5e-6, 1.6e-6, 3e-6):
        hist.observe(value)
    for p in range(0, 101, 5):
        assert hist.min <= hist.percentile(p) <= hist.max


# ----------------------------------------------------------------------
# histogram merging (the fleet fan-in primitive)
# ----------------------------------------------------------------------
def test_merge_from_sums_counts_and_extremes():
    left = Histogram("lat")
    right = Histogram("lat")
    for value in (0.5e-6, 2e-6):
        left.observe(value)
    for value in (0.1e-6, 50.0):
        right.observe(value)
    left.merge_from(right)
    assert left.total == 4
    assert left.sum == pytest.approx(50.0000026)
    assert left.min == 0.1e-6
    assert left.max == 50.0
    assert left.counts == [2, 1] + [0] * 22 + [1]


def test_merge_from_empty_keeps_extremes_quiet():
    target = Histogram("lat")
    target.observe(0.5)
    target.merge_from(Histogram("lat"))
    assert target.total == 1
    assert target.min == 0.5
    assert target.max == 0.5


def test_merge_from_rejects_mismatched_buckets():
    left = Histogram("lat")
    right = Histogram("lat").load_state({
        "bounds": [1.0, 5.0], "counts": [0, 0, 0], "total": 0,
        "sum": 0.0, "min": None, "max": None})
    with pytest.raises(ValueError, match="bucket bounds differ"):
        left.merge_from(right)


def test_pipeline_exports_the_quarantine_breakdown():
    from repro.collective.ring import ring_allgather
    from repro.live import LivePipeline

    pipeline = LivePipeline(ring_allgather(["h0", "h1"], 1024), {}, {}, 0)
    pipeline.quarantine.admit(1, "ValueError: bad")
    pipeline.quarantine.admit(2, "  : odd reason")
    registry = pipeline.build_metrics()
    assert registry[
        'live_quarantined_by_reason_total{reason="ValueError"}'
    ].value == 1
    assert registry[
        'live_quarantined_by_reason_total{reason="odd reason"}'
    ].value == 1
