"""The metric catalogue: every family ``repro serve --metrics`` writes
and a fleet scrape returns, with its type, frozen.

A renamed, retyped, new or vanished family fails here, and so does
any exposition line outside the text format 0.0.4 grammar: one
``# TYPE`` per family, samples ``name{labels} value``, cumulative
``_bucket`` counts that never decrease and end in a ``+Inf`` bucket
equal to ``_count``.  Dashboards and alerts key on these names; change
one only together with this catalogue.
"""

from __future__ import annotations

import math
import re

import pytest

from repro.cli import main

#: ``repro serve --metrics`` with a checkpoint directory and one
#: quarantined line, so every conditional family is present
LIVE_CATALOGUE = {
    "live_bus_depth": "gauge",
    "live_bus_high_watermark": "gauge",
    "live_checkpoint_bytes": "gauge",
    "live_checkpoint_fallbacks_total": "counter",
    "live_checkpoint_write_seconds": "histogram",
    "live_checkpoints_corrupt_total": "counter",
    "live_checkpoints_loaded_total": "counter",
    "live_checkpoints_written_total": "counter",
    "live_confidence": "gauge",
    "live_duplicate_records_total": "counter",
    "live_events_published_total": "counter",
    "live_graph_pruned_total": "counter",
    "live_graph_retained": "gauge",
    "live_ingest_rate_per_sec": "gauge",
    "live_ingest_to_snapshot_seconds": "histogram",
    "live_late_discarded_total": "counter",
    "live_prune_efficiency": "gauge",
    "live_quarantined_by_reason_total": "counter",
    "live_quarantined_total": "counter",
    "live_snapshot_build_seconds": "histogram",
    "live_snapshots_total": "counter",
    "live_step_records_total": "counter",
    "live_switch_reports_total": "counter",
    "live_watermark_buffered": "gauge",
}

#: ``repro fleet serve --scrape-out`` (the ``/metrics`` registry)
FLEET_CATALOGUE = {
    "fleet_degraded": "gauge",
    "fleet_degraded_snapshots_total": "counter",
    "fleet_heartbeats_total": "counter",
    "fleet_ingest_to_snapshot_seconds": "histogram",
    "fleet_merge_seconds": "histogram",
    "fleet_merge_seq": "gauge",
    "fleet_publish_failures_total": "counter",
    "fleet_publish_fallbacks_total": "counter",
    "fleet_reports_dropped_total": "counter",
    "fleet_restarts_total": "counter",
    "fleet_shard_breaker_state": "gauge",
    "fleet_shard_checkpoints_written_total": "counter",
    "fleet_shard_events_consumed_total": "counter",
    "fleet_shard_health": "gauge",
    "fleet_shard_heartbeat_age_seconds": "gauge",
    "fleet_shard_ingest_to_snapshot_seconds": "histogram",
    "fleet_shard_publish_failures_total": "counter",
    "fleet_shard_publish_fallbacks_total": "counter",
    "fleet_shard_reports_dropped_total": "counter",
    "fleet_shard_reports_offered_total": "counter",
    "fleet_shard_restarts_total": "counter",
    "fleet_shard_tenants": "gauge",
    "fleet_shard_transport_retries_total": "counter",
    "fleet_shards": "gauge",
    "fleet_stale_shards": "gauge",
    "fleet_tenant_budget_exhausted": "gauge",
    "fleet_tenant_confidence": "gauge",
    "fleet_tenant_degraded": "gauge",
    "fleet_tenant_events_admitted_total": "counter",
    "fleet_tenant_events_shed_total": "counter",
    "fleet_tenant_findings": "gauge",
    "fleet_tenant_watermark_ns": "gauge",
    "fleet_tenants": "gauge",
    "fleet_transport_retries_total": "counter",
    "fleet_watermark_ns": "gauge",
}

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_HELP = re.compile(rf"# HELP ({_NAME}) (.*)")
_TYPE = re.compile(rf"# TYPE ({_NAME}) (counter|gauge|histogram)")
_SAMPLE = re.compile(rf"({_NAME})(?:\{{(.*)\}})? (\S+)")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\[\\"n])*)"')
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _labels(text: str) -> dict[str, str]:
    pairs = _LABEL.findall(text)
    assert ",".join(f'{k}="{v}"' for k, v in pairs) == text, text
    labels = dict(pairs)
    assert len(labels) == len(pairs), f"repeated label in {text}"
    return labels


def parse_exposition(text: str) -> dict[str, str]:
    """``family -> type`` of a text exposition, asserting the grammar
    of every line on the way."""
    assert text.endswith("\n")
    types: dict[str, str] = {}
    family = None
    buckets: dict[tuple, list[tuple[float, float]]] = {}
    counts: dict[tuple, float] = {}
    for line in text[:-1].split("\n"):
        if line.startswith("# HELP "):
            match = _HELP.fullmatch(line)
            assert match and match.group(1) not in types, line
            continue
        match = _TYPE.fullmatch(line)
        if match is not None:
            family, kind = match.groups()
            assert family not in types, f"second # TYPE: {line}"
            types[family] = kind
            continue
        match = _SAMPLE.fullmatch(line)
        assert match and family is not None, line
        name, label_text, value = match.groups()
        labels = _labels(label_text) if label_text is not None else {}
        number = float(value)
        if types[family] != "histogram":
            assert name == family and "le" not in labels, line
            continue
        suffix = name[len(family):]
        assert name.startswith(family) \
            and suffix in _HISTOGRAM_SUFFIXES, line
        series = (family, tuple(sorted(
            (k, v) for k, v in labels.items() if k != "le")))
        if suffix == "_bucket":
            buckets.setdefault(series, []).append(
                (float(labels["le"]), number))
        elif suffix == "_count":
            counts[series] = number
    for series, rows in buckets.items():
        bounds = [bound for bound, _ in rows]
        cumulative = [count for _, count in rows]
        assert bounds == sorted(bounds) and bounds[-1] == math.inf, series
        assert cumulative == sorted(cumulative), series
        assert cumulative[-1] == counts[series], series
    assert set(counts) == set(buckets)
    return types


@pytest.fixture(scope="module")
def live_exposition(trace_path, tmp_path_factory) -> str:
    root = tmp_path_factory.mktemp("catalogue")
    trace = root / "run.jsonl"
    trace.write_text(trace_path.read_text() + "{torn line\n")
    metrics = root / "live.prom"
    assert main(["serve", "--trace", str(trace), "--speed", "0",
                 "--quiet", "--checkpoint-dir", str(root / "ckpt"),
                 "--metrics", str(metrics)]) == 0
    return metrics.read_text()


@pytest.fixture(scope="module")
def fleet_exposition(trace_path, tmp_path_factory) -> str:
    root = tmp_path_factory.mktemp("catalogue-fleet")
    scrape = root / "fleet.prom"
    assert main(["fleet", "serve", "--trace", str(trace_path),
                 "--replicate", "2", "--shards", "1", "--no-http",
                 "--quiet", "--workdir", str(root / "fleet"),
                 "--scrape-out", str(scrape)]) == 0
    return scrape.read_text()


def test_serve_metrics_match_the_catalogue(live_exposition):
    assert parse_exposition(live_exposition) == LIVE_CATALOGUE


def test_fleet_scrape_matches_the_catalogue(fleet_exposition):
    assert parse_exposition(fleet_exposition) == FLEET_CATALOGUE


@pytest.mark.parametrize("broken", [
    "# TYPE x counter\n# TYPE x counter\nx 1\n",       # two TYPE lines
    "x 1\n",                                            # no TYPE
    "# TYPE x counter\nx{a=\"1\"}1\n",                  # no space
    "# TYPE x counter\nx{a=1} 1\n",                     # unquoted label
    "# TYPE x counter\nx one\n",                        # not a number
    "# TYPE h histogram\nh_bucket{le=\"1\"} 2\n"
    "h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",    # decreasing
    "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\n"
    "h_sum 1\nh_count 1\n",                             # +Inf != count
    "# TYPE x counter\nx 1",                            # no final newline
])
def test_the_grammar_rejects(broken):
    with pytest.raises((AssertionError, KeyError, ValueError)):
        parse_exposition(broken)
