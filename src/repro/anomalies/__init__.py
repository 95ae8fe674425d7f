"""Anomaly injection and scenario generation (§II-B, §IV-A).

* :mod:`repro.anomalies.injectors` — primitive injectors: background
  flows, PFC storms, forwarding loops, ECMP imbalance.
* :mod:`repro.anomalies.scenarios` — the paper's four evaluation
  scenario generators (flow contention, incast, PFC storm, PFC
  backpressure) with ground truth for scoring, plus loop/deadlock
  extension scenarios.
"""
