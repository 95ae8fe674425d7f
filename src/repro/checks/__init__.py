"""Correctness tooling: static analysis and the runtime sanitizer.

``repro.checks`` is the enforcement layer for the two properties every
diagnosis result in this repo silently depends on — bit-for-bit
deterministic simulation and consistent units (ns / bytes / bps):

* :mod:`repro.checks.lint` — an AST-based static pass with
  repo-specific rules (RPR001–RPR006), exposed as the ``repro check``
  CLI verb and gated in CI;
* :mod:`repro.checks.units` — a whole-program, interprocedural
  unit-of-measure dataflow pass (RPR010–RPR013) over the
  :mod:`repro.core.units` NewType layer, exposed as
  ``repro check --units``;
* :mod:`repro.checks.concurrency` — the concurrency & durability
  discipline pass (RPR020–RPR025) for the live/fleet multiprocess
  stack (thread-shared state, atomic durable writes, spawn-boundary
  primitives, signal-handler discipline, ``state_dict``/``load_state``
  symmetry, unbounded growth), exposed as
  ``repro check --concurrency``;
* :mod:`repro.checks.lifecycle` — the exception-safety &
  resource-lifecycle pass (RPR030–RPR036: silent exception
  swallowing, shutdown-signal-eating loop handlers, leaked
  processes/sockets/files, unpaired lock acquires, dishonest
  ``finally`` blocks, undocumented exit codes, cause-losing
  re-raises), exposed as ``repro check --lifecycle``;
* :mod:`repro.checks.ir` — the shared analysis IR underneath all of
  the above: one parse per file (:class:`ParseCache`), a project-wide
  symbol table, and the suppression/scope-pragma machinery, so
  ``repro check --all`` runs every rule family in a single
  invocation;
* :mod:`repro.checks.sanitizer` — :class:`SimSanitizer`, a runtime
  invariant checker hooked into the simulation engine and data plane
  behind ``Simulator(sanitize=True)`` / ``REPRO_SANITIZE=1``, raising
  structured :class:`InvariantViolation` errors with the offending
  event trace.

See ``docs/CHECKS.md`` for the rule catalog and suppression syntax.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.checks.sanitizer import (
    InvariantViolation,
    SimSanitizer,
    TracedEvent,
)

if TYPE_CHECKING:   # the simulator imports the sanitizer, never these
    from repro.checks.concurrency import (
        CONCURRENCY_RULES,
        check_concurrency,
    )
    from repro.checks.ir import (
        ParseCache,
        build_project,
    )
    from repro.checks.lifecycle import (
        LIFECYCLE_RULES,
        check_lifecycle,
    )
    from repro.checks.lint import (
        Finding,
        RULES,
        check_paths,
        check_source,
        iter_python_files,
        render_findings,
    )
    from repro.checks.units import (
        UNIT_RULES,
        Unit,
        check_units,
    )

__getattr__ = lazy_exports(__name__, {
    "concurrency": ("CONCURRENCY_RULES", "check_concurrency"),
    "ir": ("ParseCache", "build_project"),
    "lifecycle": ("LIFECYCLE_RULES", "check_lifecycle"),
    "lint": ("Finding", "RULES", "check_paths", "check_source",
             "iter_python_files", "render_findings"),
    "units": ("UNIT_RULES", "Unit", "check_units"),
})

__all__ = [
    "CONCURRENCY_RULES",
    "Finding",
    "LIFECYCLE_RULES",
    "ParseCache",
    "RULES",
    "UNIT_RULES",
    "Unit",
    "build_project",
    "check_concurrency",
    "check_lifecycle",
    "check_paths",
    "check_source",
    "check_units",
    "iter_python_files",
    "render_findings",
    "InvariantViolation",
    "SimSanitizer",
    "TracedEvent",
]
