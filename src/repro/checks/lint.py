"""AST-based static analysis with repo-specific rules (``repro check``).

The simulator's diagnosis results are only trustworthy because every run
is bit-for-bit deterministic and every quantity is in consistent units
(ns / bytes / bps).  These rules enforce those properties in CI instead
of leaving them to post-hoc debugging of divergent traces:

* **RPR001** — no unseeded randomness or wall-clock reads (and no
  hash-order-dependent set iteration) in simulation-critical paths;
* **RPR002** — time/rate magnitudes must be built from
  :mod:`repro.simnet.units` helpers (``us(2)``, not ``2000.0``), and
  byte counts must be integers;
* **RPR003** — no ``==``/``!=`` comparisons between float timestamps;
* **RPR004** — trace writer and reader schemas must stay
  field-compatible (``encode_x``/``decode_x`` key symmetry, and every
  emitted record ``kind`` must have a reader branch);
* **RPR005** — event callbacks must not mutate ``Simulator.now`` or
  schedule into the past;
* **RPR006** — (``--strict`` only) a ``# repro: noqa`` comment that
  suppresses nothing is itself an error;
* **RPR027** — no raw ``json.loads``/``json.dumps`` over trace
  records outside the trace store: hand-rolled line parsing silently
  diverges from the columnar format, quarantine semantics and resume
  cursors that :mod:`repro.traces` centralises.

Scope: RPR001 and RPR005 apply to files under ``simnet``/``core``/
``collective`` directories, plus any file that opts in with a
``# repro: check-scope sim`` pragma.  RPR027 skips files under a
``traces`` directory (the store, serializers and converters) and
files that declare ``# repro: check-scope trace-store``.  The other
rules apply everywhere.

Suppression: append ``# repro: noqa`` (all rules) or
``# repro: noqa RPR003`` / ``# repro: noqa RPR001,RPR003`` (specific
rules) to the offending line.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.checks.ir import (
    Finding,
    ParseCache,
    apply_noqa,
    has_scope_pragma,
    iter_python_files,
    name_of as _name_of,
    numeric_literal as _numeric_literal,
)

__all__ = [
    "Finding", "RULES", "SIM_SCOPE_DIRS", "check_paths",
    "check_source", "iter_python_files", "render_findings",
]

RULES = {
    "RPR001": "unseeded randomness / wall-clock / set-order dependence "
              "in a simulation path",
    "RPR002": "unit-unsafe literal (use repro.simnet.units helpers)",
    "RPR003": "==/!= comparison between float timestamps",
    "RPR004": "trace writer/reader schema drift",
    "RPR005": "event-loop discipline (clock mutation / scheduling into "
              "the past)",
    "RPR006": "suppression comment that suppresses nothing (strict)",
    "RPR027": "raw json over trace records outside the trace store "
              "(use repro.traces readers/writers)",
}

#: directories whose files are simulation-critical (RPR001 / RPR005)
SIM_SCOPE_DIRS = frozenset({"simnet", "core", "collective"})

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
#: keyword/parameter suffixes that denote a time or rate magnitude
_UNIT_SUFFIX = re.compile(r"(_ns|_us|_ms|_bps)$")
_BYTES_SUFFIX = re.compile(r"_bytes$")
#: bare literals below this magnitude are tolerated for _ns/_bps params
#: (0 disables a feature; small counts like ttl are not unit mistakes)
UNIT_LITERAL_THRESHOLD = 1000


def _is_sim_scope(path: Path, source: str) -> bool:
    if SIM_SCOPE_DIRS.intersection(path.parts):
        return True
    return has_scope_pragma(source, "sim")


def _is_trace_store_scope(path: Path, source: str) -> bool:
    if TRACE_STORE_DIRS.intersection(path.parts):
        return True
    return has_scope_pragma(source, "trace-store")


def _is_timestamp_name(node: ast.expr) -> bool:
    name = _name_of(node)
    if name is None:
        return False
    return name in _TIME_NAMES or name.endswith("_time")


class _FileChecker(ast.NodeVisitor):
    """Single-file visitor implementing RPR001/002/003/005."""

    def __init__(self, path: str, sim_scope: bool,
                 trace_store_scope: bool = False) -> None:
        self.path = path
        self.sim_scope = sim_scope
        self.trace_store_scope = trace_store_scope
        self.findings: list[Finding] = []
        #: local aliases of the random/time/datetime modules
        self._module_alias: dict[str, str] = {}
        #: names imported directly from those modules -> "module.func"
        self._from_imports: dict[str, str] = {}
        self._class_stack: list[str] = []

    def report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(
            self.path, getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0) + 1, rule, message))

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

    # -- RPR002: unit safety -------------------------------------------
    def _check_unit_binding(self, node: ast.AST, param: str,
                            value: ast.expr) -> None:
        literal = _numeric_literal(value)
        if literal is None:
            return
        if _UNIT_SUFFIX.search(param) \
                and abs(literal) >= UNIT_LITERAL_THRESHOLD:
            self.report(
                value, "RPR002",
                f"bare literal {literal!r} bound to {param!r}; build "
                f"time/rate magnitudes from repro.simnet.units "
                f"helpers (us/ms/sec/gbps)")
        elif _BYTES_SUFFIX.search(param) and isinstance(literal, float):
            self.report(
                value, "RPR002",
                f"float literal {literal!r} bound to {param!r}; byte "
                f"counts are integers — a float here suggests a unit "
                f"mix-up")

    def _check_call_units(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg is not None:
                self._check_unit_binding(node, keyword.arg,
                                         keyword.value)

    def _check_def_defaults(self, node) -> None:
        args = node.args
        positional = args.posonlyargs + args.args
        for arg, default in zip(positional[len(positional)
                                           - len(args.defaults):],
                                args.defaults):
            self._check_unit_binding(node, arg.arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self._check_unit_binding(node, arg.arg, default)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_def_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node) -> None:
        self._check_def_defaults(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        # dataclass-style field defaults: window_ns: float = 1_000_000.0
        if isinstance(node.target, ast.Name) and node.value is not None:
            self._check_unit_binding(node, node.target.id, node.value)
        self._check_now_assignment(node.target)
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

    # -- RPR005: event-loop discipline ---------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _check_now_assignment(self, target: ast.expr) -> None:
        if not self.sim_scope:
            return
        if isinstance(target, ast.Attribute) and target.attr == "now":
            # the clock's owner may advance it; everyone else may not
            if "Simulator" in self._class_stack:
                return
            self.report(target, "RPR005",
                        "callbacks must not mutate Simulator.now; "
                        "schedule an event instead")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_now_assignment(target)
            # constant bindings: TIMEOUT_NS = 5_000_000.0
            if isinstance(target, ast.Name):
                self._check_unit_binding(node, target.id.lower(),
                                         node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_now_assignment(node.target)
        self.generic_visit(node)

    def _check_schedule_call(self, node: ast.Call) -> None:
        if not self.sim_scope:
            return
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) \
            else func.id if isinstance(func, ast.Name) else None
        if name in ("schedule", "post") and node.args:
            literal = _numeric_literal(node.args[0])
            if literal is not None and literal < 0:
                self.report(node, "RPR005",
                            f"{name}() with negative delay "
                            f"{literal!r} fires in the past")
        elif name == "schedule_at" and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.BinOp) \
                    and isinstance(arg.op, ast.Sub) \
                    and _name_of(arg.left) == "now":
                self.report(node, "RPR005",
                            "schedule_at(now - ...) targets the past; "
                            "events must be scheduled at >= now")

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
        arg_name = _name_of(payload)
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

    # -- shared call dispatcher ----------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self.sim_scope:
            self._check_nondeterministic_call(node)
        self._check_call_units(node)
        self._check_schedule_call(node)
        self._check_raw_trace_json(node)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# RPR004: trace writer / reader schema drift (module-level analysis)
# ----------------------------------------------------------------------
def _dict_keys_written(tree: ast.AST) -> set[str]:
    keys: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) \
                        and isinstance(key.value, str):
                    keys.add(key.value)
    return keys


def _dict_keys_read(tree: ast.AST) -> set[str]:
    keys: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            index = node.slice
            if isinstance(index, ast.Constant) \
                    and isinstance(index.value, str):
                keys.add(index.value)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "get" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) \
                    and isinstance(first.value, str):
                keys.add(first.value)
    return keys


def _check_schema_drift(path: str, tree: ast.Module) -> list[Finding]:
    findings: list[Finding] = []
    encoders: dict[str, ast.FunctionDef] = {}
    decoders: dict[str, ast.FunctionDef] = {}
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        name = node.name.lstrip("_")
        if name.startswith("encode_"):
            encoders[name[len("encode_"):]] = node
        elif name.startswith("decode_"):
            decoders[name[len("decode_"):]] = node

    for suffix, encoder in sorted(encoders.items()):
        decoder = decoders.get(suffix)
        if decoder is None:
            continue
        written = _dict_keys_written(encoder)
        read = _dict_keys_read(decoder)
        if not written or not read:
            continue  # list-shaped payloads carry no field names
        for key in sorted(written - read):
            findings.append(Finding(
                path, encoder.lineno, encoder.col_offset + 1, "RPR004",
                f"{encoder.name}() writes field {key!r} that "
                f"{decoder.name}() never reads"))
        for key in sorted(read - written):
            findings.append(Finding(
                path, decoder.lineno, decoder.col_offset + 1, "RPR004",
                f"{decoder.name}() reads field {key!r} that "
                f"{encoder.name}() never writes"))

    # every emitted record kind must have a reader branch in the same
    # module (the store's write()/load_trace() contract)
    emitted: dict[str, int] = {}
    recognized: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id == "emit" and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) \
                    and isinstance(first.value, str):
                emitted.setdefault(first.value, node.lineno)
        elif isinstance(node, ast.Compare):
            for op, operand in zip(node.ops, node.comparators):
                if isinstance(op, (ast.Eq, ast.In)):
                    for const in ast.walk(operand):
                        if isinstance(const, ast.Constant) \
                                and isinstance(const.value, str):
                            recognized.add(const.value)
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                if isinstance(element, ast.Constant) \
                        and isinstance(element.value, str):
                    recognized.add(element.value)
    if emitted and recognized:
        for kind, lineno in sorted(emitted.items()):
            if kind not in recognized:
                findings.append(Finding(
                    path, lineno, 1, "RPR004",
                    f"record kind {kind!r} is written but no reader "
                    f"branch in this module recognizes it"))
    return findings


# ----------------------------------------------------------------------
# suppression and driver
# ----------------------------------------------------------------------
def _apply_noqa(findings: list[Finding], source: str, path: str,
                strict: bool,
                universe: Optional[dict] = None) -> list[Finding]:
    """Filter suppressed findings; in strict mode flag unused noqa.

    ``universe`` is the rule catalogue of the calling pass (defaults
    to this module's ``RULES``).  The base pass — and only the base
    pass — also judges blanket ``# repro: noqa`` comments in strict
    mode; the shared machinery lives in :mod:`repro.checks.ir`.
    """
    return apply_noqa(findings, source, path, strict,
                      universe=RULES if universe is None else universe,
                      base_pass=universe is None)


def check_source(source: str, path: Union[str, Path],
                 sim_scope: Optional[bool] = None,
                 strict: bool = False,
                 tree: Optional[ast.Module] = None) -> list[Finding]:
    """Lint one file's source; returns unsuppressed findings.

    ``tree`` lets a caller supply the already-parsed AST (the shared
    :class:`~repro.checks.ir.ParseCache`); without it the source is
    parsed here and a syntax error becomes RPR000.
    """
    path = Path(path)
    display = str(path)
    if sim_scope is None:
        sim_scope = _is_sim_scope(path, source)
    if tree is None:
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as error:
            return [Finding(display, error.lineno or 0,
                            (error.offset or 0) or 1, "RPR000",
                            f"file does not parse: {error.msg}")]
    checker = _FileChecker(display, sim_scope,
                           _is_trace_store_scope(path, source))
    checker.visit(tree)
    findings = checker.findings + _check_schema_drift(display, tree)
    findings = _apply_noqa(findings, source, display, strict)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def check_paths(paths: Sequence[Union[str, Path]],
                strict: bool = False,
                cache: Optional[ParseCache] = None) -> list[Finding]:
    """Lint every Python file under ``paths``."""
    cache = cache if cache is not None else ParseCache()
    findings: list[Finding] = []
    for record in cache.files(paths):
        if record.read_error is not None:
            findings.append(Finding(
                record.display, 0, 1, "RPR000",
                f"unreadable: {record.read_error}"))
            continue
        if record.syntax_error is not None:
            error = record.syntax_error
            findings.append(Finding(
                record.display, error.lineno or 0,
                (error.offset or 0) or 1, "RPR000",
                f"file does not parse: {error.msg}"))
            continue
        findings.extend(check_source(record.source, record.path,
                                     strict=strict, tree=record.tree))
    return findings


def render_findings(findings: Iterable[Finding]) -> str:
    return "\n".join(finding.render() for finding in findings)
