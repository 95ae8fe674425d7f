"""Vedrfolnir core: the paper's primary contribution.

* :mod:`repro.core.units` — the typed unit-of-measure layer (NewTypes
  plus checked converters); ``repro check`` flags raw conversion
  factors where a converter exists (RPR013).
* :mod:`repro.core.waiting_graph` — the per-step waiting graph (§III-B)
  and its one construction (§III-D1: ingest in order, prune in-degree
  zero, critical path), asked once in batch and repeatedly live.
* :mod:`repro.core.monitor` — host-side performance monitoring with
  SSQ/RSQ waiting-state awareness (§III-C1, Table I).
* :mod:`repro.core.detection` — step-aware adaptive anomaly detection:
  per-step RTT thresholds, budgeted triggers, notification packets that
  transfer detection opportunities (§III-C2, Figs. 5-8).
* :mod:`repro.core.provenance` — network provenance graphs with
  flow→port, port→flow and port→port (PFC causality) edges (§III-D1).
* :mod:`repro.core.diagnosis` — anomaly signatures and breakdown
  (§III-D2).
* :mod:`repro.core.rating` — contributor rating, Eqs. 1-3 (§III-D3).
* :mod:`repro.core.analyzer` — the centralized analyzer tying it all
  together into structured diagnostic results.
* :mod:`repro.core.system` — :class:`VedrfolnirSystem`, the deployable
  bundle (monitors + agents + analyzer) applications attach to a run.
* :mod:`repro.core.failpoints` — named, seeded fault injection at
  annotated sites (``REPRO_FAILPOINTS``).
* :mod:`repro.core.retry` — retry policies, monotonic deadlines and a
  circuit breaker shared by the live / fleet resilience paths.

Exports resolve lazily (PEP 562) so that leaf modules — in particular
:mod:`repro.core.units`, which :mod:`repro.simnet` imports at runtime —
can be imported without dragging in the analyzer stack and its reverse
dependency on the simulator.
"""

import importlib

#: public name -> defining submodule (resolved on first attribute access)
_EXPORTS = {
    "WaitingGraph": "repro.core.waiting_graph",
    "WaitingVertex": "repro.core.waiting_graph",
    "EdgeKind": "repro.core.waiting_graph",
    "HostMonitor": "repro.core.monitor",
    "WaitingState": "repro.core.monitor",
    "DetectionAgent": "repro.core.detection",
    "DetectionConfig": "repro.core.detection",
    "ProvenanceGraph": "repro.core.provenance",
    "build_provenance": "repro.core.provenance",
    "AnomalyType": "repro.core.diagnosis",
    "AnomalyFinding": "repro.core.diagnosis",
    "DiagnosisResult": "repro.core.diagnosis",
    "diagnose": "repro.core.diagnosis",
    "contribution_to_port": "repro.core.rating",
    "contribution_to_flow": "repro.core.rating",
    "contribution_to_collective": "repro.core.rating",
    "VedrfolnirAnalyzer": "repro.core.analyzer",
    "VedrfolnirSystem": "repro.core.system",
    "VedrfolnirConfig": "repro.core.system",
    "replay_pairwise_weights": "repro.core.replay",
    "render_json": "repro.core.reports",
    "render_text": "repro.core.reports",
    "FailpointError": "repro.core.failpoints",
    "FailpointSpec": "repro.core.failpoints",
    "Deadline": "repro.core.retry",
    "RetryPolicy": "repro.core.retry",
    "CircuitBreaker": "repro.core.retry",
    "RetryBudgetExceeded": "repro.core.retry",
    "call_with_retry": "repro.core.retry",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: resolve each export once
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
