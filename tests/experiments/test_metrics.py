"""Metric aggregation."""

import pytest

from repro.experiments.harness import CaseResult
from repro.experiments.metrics import aggregate


def case(scenario="flow_contention", system="vedrfolnir", outcome="tp",
         processing=1000, bandwidth=2000, triggers=3):
    return CaseResult(
        scenario=scenario, case_id=0, system=system, outcome=outcome,
        processing_bytes=processing, bandwidth_bytes=bandwidth,
        poll_packets=1, notify_packets=1, report_count=2,
        triggers=triggers, collective_completed=True,
        collective_time_ns=1e6, wall_seconds=0.1,
        detected_flow_count=1, injected_flow_count=1)


def test_aggregate_groups_by_scenario_system():
    results = [case(), case(system="hawkeye-maxr"),
               case(scenario="incast")]
    metrics = aggregate(results)
    assert len(metrics) == 3


def test_precision_recall_math():
    results = [case(outcome="tp"), case(outcome="tp"),
               case(outcome="fp"), case(outcome="fn")]
    m = aggregate(results)[("flow_contention", "vedrfolnir")]
    assert m.tp == 2 and m.fp == 1 and m.fn == 1
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)


def test_all_fn_gives_zero_scores():
    m = aggregate([case(outcome="fn")])[("flow_contention",
                                         "vedrfolnir")]
    assert m.precision == 0.0
    assert m.recall == 0.0


def test_overhead_averages():
    results = [case(processing=1000, bandwidth=4000),
               case(processing=3000, bandwidth=8000)]
    m = aggregate(results)[("flow_contention", "vedrfolnir")]
    assert m.avg_processing_bytes == 2000
    assert m.avg_bandwidth_bytes == 6000
    assert m.avg_processing_kb == 2.0
    assert m.avg_bandwidth_kb == 6.0


def test_empty_aggregate():
    assert aggregate([]) == {}
