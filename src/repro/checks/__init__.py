"""Correctness tooling: static analysis and the runtime sanitizer.

``repro.checks`` enforces the contracts the diagnosis results depend
on: bit-for-bit deterministic simulation, atomic durable state,
resume ≡ uninterrupted, and a fleet that reaps what it spawns.  Every
rule in it either caught a real bug in this tree or guards a written
contract nothing else checks (the audit table in ``docs/CHECKS.md``):

* :mod:`repro.checks.lint` — the per-file rules (RPR001 determinism,
  RPR003 float-timestamp equality, RPR013 raw unit conversions,
  RPR027 one trace reader) and the one driver behind ``repro check``;
* :mod:`repro.checks.project` — the project-wide rules of the
  live/fleet stack (RPR021 atomic durable writes, RPR022 spawn-boundary
  primitives, RPR024 ``state_dict``/``load_state`` symmetry, RPR025
  unbounded growth, RPR032 resource release);
* :mod:`repro.checks.ir` — the shared substrate: one parse per file
  (:class:`ParseCache`), the finding type and the ``# repro: noqa``
  machinery (RPR000 and RPR006 are its infrastructure codes);
* :mod:`repro.checks.sanitizer` — :class:`SimSanitizer`, a runtime
  invariant checker hooked into the simulation engine and data plane
  behind ``Simulator(sanitize=True)`` / ``REPRO_SANITIZE=1``, raising
  structured :class:`InvariantViolation` errors with the offending
  event trace.
"""
