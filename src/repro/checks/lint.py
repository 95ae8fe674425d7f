"""Per-file rules and the one ``repro check`` driver.

Every rule here reads a single module.  Together with the project-wide
rules of :mod:`repro.checks.project` they form the whole catalog, and
:func:`check_paths` runs all of it in one invocation over one parse
per file:

* **RPR000** — the file does not parse (or cannot be read);
* **RPR001** — no unseeded randomness or wall-clock reads (and no
  hash-order-dependent set iteration) in simulation-critical paths;
* **RPR003** — no ``==``/``!=`` comparisons between float timestamps;
* **RPR006** — (``--strict`` only) a ``# repro: noqa`` comment that
  suppresses nothing, or names a code the catalog does not have;
* **RPR013** — a raw conversion constant (``* 8.0``, ``/ 1e9``)
  applied to a value whose name carries a unit suffix, where a checked
  converter from :mod:`repro.core.units` exists;
* **RPR027** — no raw ``json.loads``/``json.dumps`` over trace
  records outside the trace store: hand-rolled line parsing silently
  diverges from the columnar format, quarantine semantics and resume
  cursors that :mod:`repro.traces` centralises.

Scope: RPR001 applies to files under ``simnet``/``core``/``collective``
directories, RPR013 to files under ``simnet``/``core``/``live`` in the
``repro`` package (the two unit modules that *define* the factors are
exempt); a ``# repro: check-scope sim`` pragma opts any file into
both.  RPR027 skips files under a ``traces`` directory and files that
declare ``# repro: check-scope trace-store``.

Suppression: append ``# repro: noqa`` (all rules) or
``# repro: noqa RPR003`` / ``# repro: noqa RPR001,RPR003`` (specific
rules) to the offending line.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.checks import project
from repro.checks.ir import (
    Finding,
    ParseCache,
    apply_noqa,
    finding_at,
    has_scope_pragma,
    iter_python_files,
    name_of,
)

__all__ = [
    "Finding", "RULES", "SIM_SCOPE_DIRS", "check_paths",
    "check_source", "iter_python_files", "render_findings",
]

#: the whole catalog: every code ``repro check`` can report
RULES = dict(sorted({
    "RPR000": "file does not parse (or cannot be read)",
    "RPR001": "unseeded randomness / wall-clock / set-order dependence "
              "in a simulation path",
    "RPR003": "==/!= comparison between float timestamps",
    "RPR006": "suppression comment that suppresses nothing, or names a "
              "code outside the catalog (strict)",
    "RPR013": "raw conversion constant where a checked converter "
              "exists",
    "RPR027": "raw json over trace records outside the trace store "
              "(use repro.traces readers/writers)",
    **project.RULES,
}.items()))

#: directories whose files are simulation-critical (RPR001)
SIM_SCOPE_DIRS = frozenset({"simnet", "core", "collective"})
#: directories (under ``repro``) whose arithmetic is unit-checked (RPR013)
UNITS_SCOPE_DIRS = frozenset({"simnet", "core", "live"})
#: directories whose files ARE the trace store (exempt from RPR027)
TRACE_STORE_DIRS = frozenset({"traces"})

#: the record kinds the trace store owns (RPR027)
TRACE_RECORD_KINDS = frozenset({
    "meta", "schedule", "flow_key", "expected",
    "step_record", "switch_report",
})
#: argument-name fragments that mark a json payload as trace data
_TRACE_ARG_TOKENS = ("trace", "jsonl", "record")

#: ``time`` module functions that read host clocks
_WALL_CLOCK_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
    "clock_gettime", "clock_gettime_ns",
})
#: ``datetime`` constructors that read host clocks
_DATETIME_NOW_FNS = frozenset({"now", "utcnow", "today"})
#: attribute names that denote a timestamp (RPR003)
_TIME_NAMES = frozenset({"now", "time"})

#: name suffix -> unit family (RPR013)
_SUFFIX_FAMILIES = (
    ("_gbps", "rate"), ("_bps", "rate"),
    ("_bytes", "data"), ("_bits", "data"),
    ("_sec", "time"), ("_ns", "time"), ("_us", "time"),
    ("_ms", "time"), ("_s", "time"),
)
#: a bare number: compatible with every unit family
_DIMENSIONLESS = "dimensionless"
#: conversion factors a checked converter replaces, per family
_FACTORS = {
    "time": frozenset({1e3, 1e6, 1e9, 1e-3, 1e-6, 1e-9}),
    "data": frozenset({8.0, 0.125}),
    "rate": frozenset({1e9, 1e-9}),
}
_CONVERTER_HINTS = {
    "time": "a checked time converter (us_to_ns, ns_to_us, ns_to_s, "
            "ms_to_ns, ...)",
    "data": "bytes_to_bits / bits_to_bytes (or serialization_delay)",
    "rate": "gbps_to_bps / bps_to_gbps",
}


def _is_number(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) \
        and isinstance(node.value, (int, float)) \
        and not isinstance(node.value, bool)


def _conversion(node: ast.BinOp) -> Optional[tuple]:
    """``(family, factor)`` when ``node`` converts a known-unit value
    with a raw factor, else None."""
    if isinstance(node.op, ast.Mult):
        pairs = ((node.left, node.right), (node.right, node.left))
    elif isinstance(node.op, ast.Div):
        pairs = ((node.left, node.right),)
    else:
        return None
    for value, factor in pairs:
        family = _family(value)
        if family in _FACTORS and _is_number(factor) \
                and float(factor.value) in _FACTORS[family]:
            return family, factor
    return None


def _family(node: ast.expr) -> Optional[str]:
    """Unit family of an expression from name suffixes, propagated
    through arithmetic; None when unknown (never reported)."""
    if _is_number(node):
        return _DIMENSIONLESS
    if isinstance(node, (ast.Name, ast.Attribute)):
        lowered = name_of(node).lower()
        return next((family for suffix, family in _SUFFIX_FAMILIES
                     if lowered.endswith(suffix)), None)
    if isinstance(node, ast.UnaryOp):
        return _family(node.operand)
    if not isinstance(node, ast.BinOp) or _conversion(node):
        return None  # a converted value has left its family
    left, right = _family(node.left), _family(node.right)
    if isinstance(node.op, (ast.Add, ast.Sub)):
        if right in (left, _DIMENSIONLESS):
            return left
        return right if left == _DIMENSIONLESS else None
    if isinstance(node.op, ast.Mult) and left == _DIMENSIONLESS:
        return right
    if isinstance(node.op, ast.Div) and left == right \
            and left not in (None, _DIMENSIONLESS):
        return _DIMENSIONLESS  # ratio of like quantities
    if isinstance(node.op, (ast.Mult, ast.Div, ast.FloorDiv, ast.Mod)) \
            and right == _DIMENSIONLESS:
        return left
    return None


def _is_timestamp_name(node: ast.expr) -> bool:
    name = name_of(node)
    if name is None:
        return False
    return name in _TIME_NAMES or name.endswith("_time")


def _is_units_scope(path: Path, source: str) -> bool:
    parts = path.parts
    if path.name == "units.py" and path.parent.name in ("simnet", "core"):
        return False  # the converter modules define the factors
    return bool(UNITS_SCOPE_DIRS.intersection(parts)
                and "repro" in parts) \
        or has_scope_pragma(source, "sim")


class _FileChecker(ast.NodeVisitor):
    """Single-file visitor implementing RPR001/003/013/027."""

    def __init__(self, path: str, sim_scope: bool,
                 trace_store_scope: bool, units_scope: bool) -> None:
        self.path = path
        self.sim_scope = sim_scope
        self.trace_store_scope = trace_store_scope
        self.units_scope = units_scope
        self.findings: list[Finding] = []
        #: local aliases of the random/time/datetime/json modules
        self._module_alias: dict[str, str] = {}
        #: names imported directly from those modules -> "module.func"
        self._from_imports: dict[str, str] = {}

    def report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(finding_at(self.path, node, rule, message))

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in ("random", "time", "datetime", "json"):
                self._module_alias[alias.asname or root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in ("random", "time", "datetime", "json"):
            for alias in node.names:
                self._from_imports[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
        self.generic_visit(node)
    # -- RPR001: nondeterminism sources --------------------------------
    def _check_nondeterministic_call(self, node: ast.Call) -> None:
        func = node.func
        target: Optional[str] = None
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            module = self._module_alias.get(func.value.id)
            if module is not None:
                target = f"{module}.{func.attr}"
            elif self._from_imports.get(func.value.id) \
                    == "datetime.datetime":
                target = f"datetime.{func.attr}"
        elif isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Attribute) \
                and isinstance(func.value.value, ast.Name) \
                and self._module_alias.get(func.value.value.id) \
                == "datetime":
            # datetime.datetime.now() / datetime.date.today()
            target = f"datetime.{func.attr}"
        elif isinstance(func, ast.Name):
            target = self._from_imports.get(func.id)
        if target is None:
            return
        module, _, name = target.partition(".")
        if module == "random" and name not in ("Random", "SystemRandom"):
            self.report(node, "RPR001",
                        f"call to random.{name}() uses the shared "
                        f"global RNG; use a seeded random.Random "
                        f"instance")
        elif module == "time" and name in _WALL_CLOCK_FNS:
            self.report(node, "RPR001",
                        f"call to time.{name}() reads a host clock; "
                        f"use Simulator.now")
        elif module == "datetime" and name in _DATETIME_NOW_FNS:
            self.report(node, "RPR001",
                        f"call to datetime {name}() reads a host "
                        f"clock; use Simulator.now")

    def _check_set_iteration(self, node: ast.AST,
                             iterable: ast.expr) -> None:
        is_set = isinstance(iterable, (ast.Set, ast.SetComp)) or (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in ("set", "frozenset"))
        if is_set:
            self.report(node, "RPR001",
                        "iterating a set is hash-order dependent; wrap "
                        "in sorted() for a deterministic order")

    def visit_For(self, node: ast.For) -> None:
        if self.sim_scope:
            self._check_set_iteration(node, node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if self.sim_scope:
            self._check_set_iteration(node.iter, node.iter)
        self.generic_visit(node)

    # -- RPR003: float timestamp equality ------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if not (_is_timestamp_name(left)
                    or _is_timestamp_name(right)):
                continue
            # comparing a timestamp-like name against a non-numeric
            # constant (None / str sentinel) is not a float comparison
            other = right if _is_timestamp_name(left) else left
            if isinstance(other, ast.Constant) \
                    and not isinstance(other.value, (int, float)):
                continue
            self.report(node, "RPR003",
                        "==/!= on float timestamps is brittle; compare "
                        "with </> or an explicit tolerance")
        self.generic_visit(node)

    # -- RPR027: raw json over trace records ---------------------------
    def _json_call_target(self, node: ast.Call) -> Optional[str]:
        """``json.loads``/``json.dumps``/``json.load``/``json.dump``
        (through aliases), else None."""
        func = node.func
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and self._module_alias.get(func.value.id) == "json":
            name = func.attr
        elif isinstance(func, ast.Name):
            target = self._from_imports.get(func.id, "")
            if not target.startswith("json."):
                return None
            name = target[len("json."):]
        else:
            return None
        return name if name in ("loads", "dumps", "load", "dump") \
            else None

    def _check_raw_trace_json(self, node: ast.Call) -> None:
        if self.trace_store_scope:
            return
        name = self._json_call_target(node)
        if name is None or not node.args:
            return
        payload = node.args[0]
        # hand-built record: json.dumps({"kind": "step_record", ...})
        if name in ("dumps", "dump") and isinstance(payload, ast.Dict):
            for key, value in zip(payload.keys, payload.values):
                if isinstance(key, ast.Constant) \
                        and key.value == "kind" \
                        and isinstance(value, ast.Constant) \
                        and value.value in TRACE_RECORD_KINDS:
                    self.report(
                        node, "RPR027",
                        f"hand-built trace record {value.value!r} "
                        f"serialized with json.{name}(); emit through "
                        f"repro.traces (TraceRecorder / serialize)")
                    return
        # trace-named payloads: json.loads(trace_line), dumps(record)
        arg_name = name_of(payload)
        if arg_name is None:
            return
        lowered = arg_name.lower()
        if any(token in lowered for token in _TRACE_ARG_TOKENS):
            self.report(
                node, "RPR027",
                f"raw json.{name}() over {arg_name!r} bypasses the "
                f"trace store; use the repro.traces readers/writers "
                f"(open_trace, trace_events, write_columnar, "
                f"write_jsonl)")

    # -- RPR013: raw conversion constants ------------------------------
    def visit_BinOp(self, node: ast.BinOp) -> None:
        conversion = _conversion(node) if self.units_scope else None
        if conversion is not None:
            family, factor = conversion
            self.report(
                node, "RPR013",
                f"raw conversion constant {factor.value!r} applied to "
                f"a {family} value; use {_CONVERTER_HINTS[family]} "
                f"from repro.core.units")
        self.generic_visit(node)

    # -- shared call dispatcher ----------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self.sim_scope:
            self._check_nondeterministic_call(node)
        self._check_raw_trace_json(node)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def _class_names(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body
            if isinstance(node, ast.ClassDef)}


def check_source(source: str, path: Union[str, Path],
                 strict: bool = False,
                 tree: Optional[ast.Module] = None,
                 classes: Optional[frozenset] = None) -> list[Finding]:
    """Every rule over one file's source; returns unsuppressed findings.

    ``tree`` lets a caller supply the already-parsed AST (the shared
    :class:`~repro.checks.ir.ParseCache`); without it the source is
    parsed here and a syntax error becomes RPR000.  ``classes`` is the
    set of class names the analyzed tree defines (RPR022); it defaults
    to this file's own.
    """
    path = Path(path)
    display = str(path)
    if tree is None:
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as error:
            return [Finding(display, error.lineno or 0,
                            (error.offset or 0) or 1, "RPR000",
                            f"file does not parse: {error.msg}")]
    checker = _FileChecker(
        display,
        sim_scope=bool(SIM_SCOPE_DIRS.intersection(path.parts))
        or has_scope_pragma(source, "sim"),
        trace_store_scope=bool(TRACE_STORE_DIRS.intersection(path.parts))
        or has_scope_pragma(source, "trace-store"),
        units_scope=_is_units_scope(path, source))
    checker.visit(tree)
    if classes is None:
        classes = frozenset(_class_names(tree))
    findings = checker.findings + project.check_module(
        display, path, source, tree, classes)
    findings = apply_noqa(findings, source, display, strict, RULES)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule,
                                 f.message))
    return findings


def check_paths(paths: Sequence[Union[str, Path]],
                strict: bool = False,
                cache: Optional[ParseCache] = None) -> list[Finding]:
    """Every rule over every Python file under ``paths``, one parse
    per file."""
    cache = cache if cache is not None else ParseCache()
    records = cache.files(paths)
    classes = frozenset(name for record in records if record.ok
                        for name in _class_names(record.tree))
    findings: list[Finding] = []
    for record in records:
        if record.read_error is not None:
            findings.append(Finding(
                record.display, 0, 1, "RPR000",
                f"unreadable: {record.read_error}"))
        elif record.syntax_error is not None:
            error = record.syntax_error
            findings.append(Finding(
                record.display, error.lineno or 0,
                (error.offset or 0) or 1, "RPR000",
                f"file does not parse: {error.msg}"))
        else:
            findings.extend(check_source(record.source, record.path,
                                         strict=strict, tree=record.tree,
                                         classes=classes))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def render_findings(findings: Iterable[Finding]) -> str:
    return "\n".join(finding.render() for finding in findings)
