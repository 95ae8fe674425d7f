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
* :mod:`repro.core.retry` — retry policies and a circuit breaker
  shared by the live / fleet resilience paths.
* :mod:`repro.core.durable` — :func:`~repro.core.durable.atomic_write`,
  the one way a file is replaced (tmp sibling + ``os.replace``, fsynced
  when durable).

The package exports nothing itself, so importing a leaf module — in
particular :mod:`repro.core.units`, which :mod:`repro.simnet` imports
at runtime — never drags in the analyzer stack and its reverse
dependency on the simulator.
"""
