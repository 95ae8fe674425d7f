"""Anomaly injection and scenario generation (§II-B, §IV-A).

* :mod:`repro.anomalies.injectors` — primitive injectors: background
  flows, PFC storms, forwarding loops, ECMP imbalance.
* :mod:`repro.anomalies.scenarios` — the paper's four evaluation
  scenario generators (flow contention, incast, PFC storm, PFC
  backpressure) with ground truth for scoring, plus loop/deadlock
  extension scenarios.
"""

from repro.anomalies.injectors import (
    BackgroundFlowSpec,
    inject_background_flows,
    inject_pfc_storm,
    inject_forwarding_loop,
)
from repro.anomalies.scenarios import (
    GroundTruth,
    ScenarioCase,
    ScenarioConfig,
    make_contention_cases,
    make_cases,
    SCENARIOS,
)

__all__ = [
    "BackgroundFlowSpec",
    "inject_background_flows",
    "inject_pfc_storm",
    "inject_forwarding_loop",
    "GroundTruth",
    "ScenarioCase",
    "ScenarioConfig",
    "make_contention_cases",
    "make_cases",
    "SCENARIOS",
]
