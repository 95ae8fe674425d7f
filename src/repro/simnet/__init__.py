"""Discrete-event, packet-level RDMA network simulator.

``repro.simnet`` is the substrate on which the Vedrfolnir diagnosis system
runs.  It models a RoCEv2-style lossless Ethernet fabric:

* a deterministic discrete-event engine (:mod:`repro.simnet.engine`),
* fat-tree and custom topologies (:mod:`repro.simnet.topology`),
* ECMP routing with static overrides (:mod:`repro.simnet.routing`),
* switches with per-priority egress queues, ingress PFC accounting and
  ECN marking (:mod:`repro.simnet.switch`),
* PFC pause/resume causality tracking (:mod:`repro.simnet.pfc`),
* DCQCN congestion control with line-rate start
  (:mod:`repro.simnet.dcqcn`),
* RDMA-like message flows with pacing, windowing and per-packet ACKs
  (:mod:`repro.simnet.flow`),
* switch telemetry and polling-packet propagation
  (:mod:`repro.simnet.telemetry`).

Every layer is deterministic by construction; the optional runtime
sanitizer (``Simulator(sanitize=True)`` or ``REPRO_SANITIZE=1``,
see :mod:`repro.checks.sanitizer`) verifies the invariants that
determinism rests on and raises
:class:`~repro.checks.sanitizer.InvariantViolation` when one breaks.
"""
