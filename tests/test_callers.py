"""Every public src name has a caller outside the tests.

A public (non-``_``) module-level ``def`` or ``class`` under
``src/repro`` counts as called when its name appears as an
``ast.Name`` id or an ``ast.Attribute`` attr in any src module, or in
any Python file under ``benchmarks/``, ``examples/`` or ``tools/``.
Tests never count as callers: code only a test reaches is deleted, or
moved into the test that needs it.

The walk is over the AST, not tokens, so a name in a docstring, an
``__all__`` string or a ``from ... import`` alias is not a call, and
f-strings read the same on every Python version.

A name that stays without a caller is on ``ALLOWLIST`` with a reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("benchmarks", "examples", "tools")

_CONVERTERS = ("the converter vocabulary that RPR013's messages tell "
               "users to call")

# Whole modules kept for the reason given.
ALLOWED_MODULES = {
    "core/units.py": _CONVERTERS,
    "simnet/units.py": _CONVERTERS,
}

# (module, name) -> the one-line reason it stays without a caller.
ALLOWLIST = {
    ("collective/extra.py", "all_to_all"):
        "DESIGN.md §V: diagnosis applies across collective algorithms",
    ("collective/extra.py", "binomial_broadcast"):
        "DESIGN.md §V: diagnosis applies across collective algorithms",
    ("collective/extra.py", "pipeline_broadcast"):
        "DESIGN.md §V: diagnosis applies across collective algorithms",
    ("collective/halving_doubling.py", "halving_doubling_reduce_scatter"):
        "ROADMAP: halving-doubling in the accuracy loop",
    ("collective/halving_doubling.py", "halving_doubling_allgather"):
        "ROADMAP: halving-doubling in the accuracy loop",
    ("core/rating.py", "contribution_to_port"):
        "Eq. 1 of the paper",
    ("experiments/harness.py", "run_matrix"):
        "the serial reference the parallel runner is compared against",
    ("traces/serialize.py", "decode_step_record"):
        "the reference decoder the columnar codec is compared against",
    ("traces/serialize.py", "decode_switch_report"):
        "the reference decoder the columnar codec is compared against",
    ("simnet/topology.py", "build_dumbbell"):
        "a small topology most simnet tests build on",
    ("simnet/topology.py", "build_linear"):
        "a small topology most simnet tests build on",
}


def _py_files(base: Path) -> list[Path]:
    return sorted(p for p in base.rglob("*.py")
                  if "__pycache__" not in p.parts)


def _referenced(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def uncalled() -> list[str]:
    """``module::name`` of every public src definition with no caller."""
    defined: list[tuple[str, str]] = []
    called: set[str] = set()
    for path in _py_files(SRC):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        module = path.relative_to(SRC).as_posix()
        defined += [(module, name) for name in _public_definitions(tree)]
        called |= _referenced(tree)
    for directory in CALLER_DIRS:
        for path in _py_files(ROOT / directory):
            called |= _referenced(
                ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return [f"{module}::{name}" for module, name in defined
            if name not in called]


def test_every_public_src_name_has_a_caller():
    flagged = [entry for entry in uncalled()
               if entry.split("::")[0] not in ALLOWED_MODULES
               and tuple(entry.split("::")) not in ALLOWLIST]
    assert not flagged, (
        "public src names that no src module, benchmark, example or tool "
        "calls (delete them, or allowlist one with a reason):\n  "
        + "\n  ".join(flagged))


def test_every_allowlisted_name_exists_and_is_uncalled():
    # An entry that gained a caller, or whose name is gone, is stale.
    flagged = set(uncalled())
    stale = [f"{module}::{name}" for module, name in ALLOWLIST
             if f"{module}::{name}" not in flagged]
    assert not stale, f"allowlist entries that are not uncalled: {stale}"
    for module in ALLOWED_MODULES:
        assert (SRC / module).is_file(), module
