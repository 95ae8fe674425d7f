"""Prometheus text exposition rendering + the live scrape endpoint."""

import json
import urllib.error
import urllib.request

import pytest

from repro.fleet.exporter import CONTENT_TYPE, MetricsExporter
from repro.live.metrics import MetricsRegistry, render_prometheus


def test_render_groups_label_variants_into_one_family():
    registry = MetricsRegistry()
    registry.counter("fleet_shard_events_total", "events per shard",
                     labels={"shard": "0"}).inc(5)
    registry.counter("fleet_shard_events_total", "events per shard",
                     labels={"shard": "1"}).inc(7)
    text = render_prometheus(registry)
    assert text.count("# HELP fleet_shard_events_total") == 1
    assert text.count("# TYPE fleet_shard_events_total counter") == 1
    assert 'fleet_shard_events_total{shard="0"} 5' in text
    assert 'fleet_shard_events_total{shard="1"} 7' in text
    assert text.endswith("\n")


def test_render_escapes_hostile_label_values_and_help():
    registry = MetricsRegistry()
    registry.gauge("fleet_tenant_up", 'help with \\ and\nnewline',
                   labels={"tenant": 'evil"name\\with\nnewline'}) \
        .set(1)
    text = render_prometheus(registry)
    assert '# HELP fleet_tenant_up help with \\\\ and\\nnewline' \
        in text
    assert 'tenant="evil\\"name\\\\with\\nnewline"' in text
    # every non-comment line still has exactly one unescaped quote
    # pair around the label value
    for line in text.splitlines():
        if not line.startswith("#"):
            assert line.count('"') - line.count('\\"') == 2


def test_render_histogram_buckets_are_cumulative():
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "fleet_merge_seconds", "merge wall time")
    # the bounds are 1, 2, 4, ... µs
    for value in (0.5e-6, 1.5e-6, 1.5e-6, 3e-6, 100.0):
        histogram.observe(value)
    text = render_prometheus(registry)
    assert "# TYPE fleet_merge_seconds histogram" in text
    assert 'fleet_merge_seconds_bucket{le="1e-06"} 1' in text
    assert 'fleet_merge_seconds_bucket{le="2e-06"} 3' in text
    assert 'fleet_merge_seconds_bucket{le="4e-06"} 4' in text
    assert 'fleet_merge_seconds_bucket{le="8e-06"} 4' in text
    assert 'fleet_merge_seconds_bucket{le="+Inf"} 5' in text
    assert "fleet_merge_seconds_count 5" in text
    assert "fleet_merge_seconds_sum 100.0000065" in text


def test_render_labeled_histogram_keeps_labels_on_every_sample():
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "fleet_shard_latency_seconds", "", labels={"shard": "2"})
    histogram.observe(0.5e-6)
    text = render_prometheus(registry)
    assert 'fleet_shard_latency_seconds_bucket{le="1e-06",shard="2"} 1' \
        in text
    assert 'fleet_shard_latency_seconds_sum{shard="2"}' in text
    assert 'fleet_shard_latency_seconds_count{shard="2"} 1' in text


def test_aggregator_exports_labeled_transport_series():
    """Mailbox drop-oldest counts and worker publish failures surface
    as per-shard labeled series (the fan-in observability contract)."""
    from repro.fleet.aggregator import FleetAggregator, ShardReport

    aggregator = FleetAggregator([0, 1], mailbox_capacity=1)
    for events in (10, 20, 30):  # capacity 1: two drop-oldest evictions
        aggregator.offer(ShardReport(shard_id=0, final=False,
                                     events_consumed=events))
    aggregator.offer(ShardReport(
        shard_id=1, final=True, events_consumed=5,
        publish_failures=3, publish_fallbacks=2, transport_retries=7,
        breaker_state=2))
    registry = aggregator.export_into(MetricsRegistry())
    text = render_prometheus(registry)
    assert 'fleet_shard_reports_offered_total{shard="0"} 3' in text
    assert 'fleet_shard_reports_dropped_total{shard="0"} 2' in text
    assert 'fleet_shard_reports_dropped_total{shard="1"} 0' in text
    assert 'fleet_shard_publish_failures_total{shard="1"} 3' in text
    assert 'fleet_shard_publish_fallbacks_total{shard="1"} 2' in text
    assert 'fleet_shard_transport_retries_total{shard="1"} 7' in text
    assert 'fleet_shard_breaker_state{shard="1"} 2' in text
    # health-blind aggregator: no liveness series at all
    assert "fleet_shard_health" not in text
    assert "fleet_shard_heartbeat_age_seconds" not in text


def test_aggregator_exports_health_series_with_policy():
    from repro.fleet.aggregator import (
        FleetAggregator,
        HealthPolicy,
        ShardReport,
    )

    clock_now = [0.0]
    aggregator = FleetAggregator(
        [0, 1],
        health=HealthPolicy(stale_after_s=1.0, dead_after_s=2.0),
        clock=lambda: clock_now[0])
    aggregator.offer(ShardReport(shard_id=0, final=False,
                                 events_consumed=1))
    aggregator.heartbeat(1)
    clock_now[0] = 2.5
    aggregator.offer(ShardReport(shard_id=0, final=False,
                                 events_consumed=2))
    aggregator.merge()  # shard 1 dead -> degraded snapshot
    text = render_prometheus(aggregator.export_into(MetricsRegistry()))
    assert 'fleet_shard_health{shard="0"} 0' in text
    assert 'fleet_shard_health{shard="1"} 2' in text
    assert 'fleet_shard_heartbeat_age_seconds{shard="1"} 2.5' in text
    assert "fleet_heartbeats_total 1" in text
    assert "fleet_degraded_snapshots_total 1" in text


@pytest.fixture
def exporter():
    registry = MetricsRegistry()
    registry.gauge("fleet_tenants", "tenants").set(3)
    served = MetricsExporter(
        lambda: registry,
        status_fn=lambda: {"seq": 4, "final": False})
    with served:
        yield served


def fetch(exporter, path):
    url = f"http://127.0.0.1:{exporter.port}{path}"
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers.get("Content-Type"), \
            response.read().decode("utf-8")


def test_http_metrics_scrape(exporter):
    status, content_type, body = fetch(exporter, "/metrics")
    assert status == 200
    assert content_type == CONTENT_TYPE
    assert "fleet_tenants 3" in body


def test_http_healthz_and_fleet_json(exporter):
    status, _, body = fetch(exporter, "/healthz")
    assert (status, body) == (200, "ok\n")
    status, content_type, body = fetch(exporter, "/fleet")
    assert status == 200
    assert content_type.startswith("application/json")
    assert json.loads(body) == {"seq": 4, "final": False}


def test_http_unknown_path_is_404(exporter):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        fetch(exporter, "/nope")
    assert excinfo.value.code == 404


def test_exporter_port_is_rebindable_after_stop():
    registry = MetricsRegistry()
    exporter = MetricsExporter(lambda: registry)
    port = exporter.start()
    assert port > 0
    exporter.stop()
    # idempotent stop, restartable exporter
    exporter.stop()
    assert exporter.start() > 0
    exporter.stop()
