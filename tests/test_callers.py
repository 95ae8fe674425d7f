"""Every public src name has a caller outside the tests.

The callers are every src module and every Python file under
``benchmarks/``, ``examples/`` or ``tools/``.  Tests never count as
callers: code only a test reaches is deleted, or moved into the test
that needs it.

* A public (non-``_``) module-level ``def``, ``class`` or constant
  counts as called only through a binding that reaches its own module:
  a bare use inside that module; a use of the name that ``from
  <module> import name`` binds (or an import of it through a package
  whose export map names that module, or through another module that
  imported it); or ``<module>.name`` on a name bound to that module.
  A method, field or keyword of the same spelling is not a call.
* A public name in a package's ``__all__`` counts as used only when a
  caller that is not a package ``__init__`` imports it from that
  package (``from repro.<pkg> import name``) or reads
  ``repro.<pkg>.name``.  A submodule imports without an entry.
* A package ``__init__`` is its docstring, or its docstring and one
  :func:`repro._lazy.lazy_exports` map keyed by the modules that
  define the names.  No other module defines ``__all__``: only a star
  import reads one, and no caller makes one.
* Every long option of ``repro`` appears in a documented caller: the
  usage block of the :mod:`repro.cli` docstring, ``README.md``,
  ``docs/``, the CI workflow, ``examples/`` or ``tools/``.  A flag no
  one passes is pinned to its default and deleted.
* Every defaulted parameter of a public src ``def`` or method
  (``__init__`` included, and the one ``@dataclass`` writes for a
  ``*Config`` / ``*Policy`` / ``*Plan``) has a caller that passes it
  something else: a keyword (to ``dataclasses.replace`` too), a
  positional argument at its place, or a store ``x.<param> = ...``
  where ``x`` is not ``self``.  A literal equal to the default passes
  nothing, nor does a src def that only forwards one of its own
  parameters no caller sets (run to a fixed point), nor ``cls(...)``
  rebuilding a config.  A callee resolves through import bindings,
  else by name; a def read as a value (not a config class: that is a
  ``default_factory``) counts as having every parameter set.
* Every public method or property of a src class, unless a stdlib
  base class dispatches it by name, has a caller that reads an
  attribute of its name (``self.name`` too) or spells it in a string
  (``getattr``).  Every ``self.<attr> = ...`` in a src class has a
  caller that loads that name; ``__slots__`` loads nothing.

The walk is over the AST, not tokens, so a name in a docstring is not
a use, and f-strings read the same on every Python version.

A name that stays without a caller is on ``ALLOWLIST`` with a reason,
a parameter on ``PARAM_ALLOWLIST``, a method on ``METHOD_ALLOWLIST``,
a stored attribute on ``ATTR_ALLOWLIST``; a def on ``ALLOWLIST`` exists
for the tests, and its parameters are exempt.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import re
from functools import cache, cached_property
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("benchmarks", "examples", "tools")
CLI_CALLERS = ("README.md", "docs/*.md", ".github/workflows/ci.yml",
               "examples/**/*", "tools/**/*")

_CONVERTERS = ("the converter vocabulary that RPR013's messages tell "
               "users to call")

# Whole modules kept for the reason given.
ALLOWED_MODULES = {
    "core/units.py": _CONVERTERS,
    "simnet/units.py": _CONVERTERS,
}

_ALGORITHMS = "DESIGN.md §V: diagnosis applies across collective algorithms"
_HD = "ROADMAP: halving-doubling in the accuracy loop"
_DECODER = "the reference decoder the columnar codec is compared against"
_SMALL = "a small topology most simnet tests build on"

# (module, name) -> the one-line reason it stays without a caller.
ALLOWLIST = {
    ("collective/extra.py", "all_to_all"): _ALGORITHMS,
    ("collective/extra.py", "binomial_broadcast"): _ALGORITHMS,
    ("collective/extra.py", "pipeline_broadcast"): _ALGORITHMS,
    ("collective/halving_doubling.py", "halving_doubling_reduce_scatter"):
        _HD,
    ("collective/halving_doubling.py", "halving_doubling_allgather"): _HD,
    ("core/rating.py", "contribution_to_port"): "Eq. 1 of the paper",
    ("experiments/harness.py", "run_matrix"):
        "the serial reference the parallel runner is compared against",
    ("traces/serialize.py", "decode_step_record"): _DECODER,
    ("traces/serialize.py", "decode_switch_report"): _DECODER,
    ("simnet/topology.py", "build_dumbbell"): _SMALL,
    ("simnet/topology.py", "build_linear"): _SMALL,
}

CONFIG_SUFFIXES = ("Config", "Policy", "Plan")


def _py_files(base: Path) -> list[Path]:
    return sorted(p for p in base.rglob("*.py")
                  if "__pycache__" not in p.parts)


def _dotted(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _export_map(tree: ast.Module) -> dict[str, str]:
    """name -> defining module (relative to the package) of the
    package's ``lazy_exports`` map, if it has one."""
    homes = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            modules = ast.literal_eval(node.args[1])
            homes |= {name: module for module, names in modules.items()
                      for name in names}
    return homes


class Module:
    """One parsed file: what it defines and what it binds by import."""

    def __init__(self, path: Path, name: str | None):
        self.path = path
        self.name = name            # dotted, for a src module
        self.tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

    @cached_property
    def defined(self) -> set[str]:
        """Every module-level name the module itself assigns."""
        names = set()
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names |= {target.id for target in targets
                          if isinstance(target, ast.Name)}
        return names

    @cached_property
    def imports(self) -> list[tuple[str, str, str | None]]:
        """``(bound name, module, imported name)``; the imported name
        is None when the binding is the module itself."""
        bound = []
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bound.append((alias.asname, alias.name, None))
                    else:
                        top = alias.name.split(".")[0]
                        bound.append((top, top, None))
            elif isinstance(node, ast.ImportFrom) and node.module:
                bound += [(alias.asname or alias.name, node.module,
                           alias.name) for alias in node.names]
        return bound


class Project:
    """The src modules and the callers, with import bindings resolved
    to the module that defines each name."""

    def __init__(self):
        self.src = {_dotted(path): Module(path, _dotted(path))
                    for path in _py_files(SRC)}
        self.exports = {name: _export_map(module.tree)
                        for name, module in self.src.items()
                        if module.path.name == "__init__.py"}
        self.called: set[tuple[str, str | None]] = set()
        self.imported_from_package: set[tuple[str, str]] = set()
        self.callers = list(self.src.values()) + [
            Module(path, None)
            for directory in CALLER_DIRS
            for path in _py_files(ROOT / directory)]
        for module in self.callers:
            self._walk(module)

    def resolve(self, module: str, name: str | None, seen=frozenset()):
        """The ``(module, name)`` definitions ``module.name`` reaches;
        a module (``name`` None, or a submodule) is ``(module, None)``."""
        if name is None:
            return {(module, None)}
        if (module, name) in seen or module not in self.src:
            return set()
        seen = seen | {(module, name)}
        if name in self.src[module].defined:
            return {(module, name)}
        home = self.exports.get(module, {}).get(name)
        if home is not None:
            return self.resolve(f"{module}.{home}", name, seen)
        reached = set()
        for bound, source, imported in self.src[module].imports:
            if bound == name:
                reached |= self.resolve(source, imported, seen)
        if not reached and f"{module}.{name}" in self.src:
            reached = {(f"{module}.{name}", None)}
        return reached

    def binds(self, module: Module) -> dict[str, set]:
        """Each name ``module`` binds by import -> what it reaches."""
        binds: dict[str, set] = {}
        for bound, source, imported in module.imports:
            binds.setdefault(bound, set()).update(
                self.resolve(source, imported))
        return binds

    def modules_of(self, binds: dict[str, set], node) -> set[str]:
        """The src modules a name or ``a.b`` chain is bound to."""
        if isinstance(node, ast.Name):
            return {target for target, name in binds.get(node.id, ())
                    if name is None}
        if isinstance(node, ast.Attribute):
            return {f"{base}.{node.attr}"
                    for base in self.modules_of(binds, node.value)
                    if f"{base}.{node.attr}" in self.src}
        return set()

    def _walk(self, module: Module) -> None:
        # a package's own imports are re-exports, not callers
        through_package = set() if module.name in self.exports \
            else self.imported_from_package
        through_package.update(
            (source, imported) for _, source, imported in module.imports
            if imported is not None and source in self.exports)
        binds = self.binds(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self.called |= binds.get(node.id, set())
                if module.name and node.id in module.defined:
                    self.called.add((module.name, node.id))
            elif isinstance(node, ast.Attribute):
                for base in self.modules_of(binds, node.value):
                    self.called |= self.resolve(base, node.attr)
                    if base in self.exports:
                        through_package.add((base, node.attr))


PROJECT = Project()


def uncalled() -> list[str]:
    """``module::name`` of every public src definition with no caller."""
    return [f"{module.path.relative_to(SRC).as_posix()}::{name}"
            for dotted, module in PROJECT.src.items()
            for name in sorted(module.defined)
            if not name.startswith("_")
            and (dotted, name) not in PROJECT.called]


def unimported_exports() -> list[str]:
    """``package::name`` of every public ``__all__`` entry that no
    caller imports from its package, or that names a submodule."""
    return [f"{package}::{name}"
            for package in PROJECT.exports
            for name in getattr(importlib.import_module(package), "__all__",
                                ())
            if not name.startswith("_")
            and (f"{package}.{name}" in PROJECT.src
                 or (package, name) not in PROJECT.imported_from_package)]


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


def test_every_package_export_has_a_caller():
    unused = unimported_exports()
    assert not unused, (
        f"{len(unused)} package exports that no src module, benchmark, "
        "example or tool imports from the package (drop them from the "
        "export map; a submodule needs no entry):\n  "
        + "\n  ".join(unused))


def test_every_package_init_is_its_docstring_or_one_export_map():
    wrong = []
    for package, homes in PROJECT.exports.items():
        body = PROJECT.src[package].tree.body[1:]
        for node in body:
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "repro._lazy":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom, ast.If,
                                 ast.FunctionDef)):
                wrong.append(f"{package}: line {node.lineno} is an "
                             f"{type(node).__name__}")
        wrong += [f"{package}::{name} is not defined in {home}"
                  for name, home in homes.items()
                  if name not in PROJECT.src[f"{package}.{home}"].defined]
    assert not wrong, "\n".join(wrong)


def test_only_a_package_init_defines_all():
    wrong = []
    for module in PROJECT.src.values():
        for node in module.tree.body:
            stores_all = any(isinstance(name, ast.Name)
                             and name.id == "__all__"
                             and isinstance(name.ctx, ast.Store)
                             for name in ast.walk(node))
            value = getattr(node, "value", None)
            through_map = (module.path.name == "__init__.py"
                           and isinstance(value, ast.Call)
                           and getattr(value.func, "id", None)
                           == "lazy_exports")
            if stores_all and not through_map:
                wrong.append(f"{module.path.relative_to(SRC).as_posix()}"
                             f":{node.lineno}")
    assert not wrong, (
        "modules that define __all__ outside a package's lazy_exports "
        "map (no caller star-imports them; delete the list):\n  "
        + "\n  ".join(wrong))


def long_options(parser: argparse.ArgumentParser) -> set[str]:
    """Every ``--flag`` of ``parser`` and of its subcommands."""
    options = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                options |= long_options(child)
        else:
            options |= {option for option in action.option_strings
                        if option.startswith("--")}
    return options - {"--help"}


def test_every_cli_flag_has_a_documented_caller():
    import repro.cli

    text = repro.cli.__doc__ + "".join(
        path.read_text(encoding="utf-8")
        for pattern in CLI_CALLERS for path in sorted(ROOT.glob(pattern))
        if path.is_file() and "__pycache__" not in path.parts)
    undocumented = sorted(
        flag for flag in long_options(repro.cli.build_parser())
        if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text))
    assert not undocumented, (
        "repro flags that no usage line, README, doc, CI step, example "
        "or tool passes (pin each to its default and delete it, or show "
        "it in the repro.cli usage block):\n  "
        + "\n  ".join(undocumented))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(decorator).startswith("dataclass")
               for decorator in node.decorator_list)


def _same(value: ast.expr, default: ast.expr | None) -> bool:
    """Whether ``value`` is a literal equal to ``default`` (a
    ``field(default_factory=...)`` equals no literal)."""
    if default is None or (isinstance(default, ast.Call) and getattr(
            default.func, "id", None) == "field"):
        return False
    if ast.dump(value) == ast.dump(default):
        return True
    try:
        return ast.literal_eval(value) == ast.literal_eval(default)
    except ValueError:
        return False


_SEAM = "a test seam: it lets a test substitute a fake"
_DEPLOY = "a deployment setting"
_FROZEN = "the fleet_fanin benchmark reads it, and the benchmark is frozen"

# (module, def, parameter) -> the one-line reason it keeps its default
# though no caller passes another value.
PARAM_ALLOWLIST = {
    ("checks/lint.py", "check_paths", "cache"): _SEAM,
    ("cli.py", "main", "argv"): _SEAM,
    ("core/failpoints.py", "configure_from_env", "environ"): _SEAM,
    ("core/failpoints.py", "fire", "sleep"): _SEAM,
    ("core/failpoints.py", "mangle", "sleep"): _SEAM,
    ("core/retry.py", "CircuitBreaker.__init__", "clock"): _SEAM,
    ("fleet/aggregator.py", "FleetAggregator.merge", "clock"): _SEAM,
    ("fleet/transport.py", "ReportPublisher.__init__", "sleep"): _SEAM,
    ("fleet/worker.py", "run_worker_process", "ctx"): _SEAM,
    ("fleet/worker.py", "run_shard_supervised", "ctx"): _SEAM,
    ("live/checkpoint.py", "resume_or_create", "clock"): _SEAM,
    ("live/supervisor.py", "Supervisor.__init__", "clock"): _SEAM,
    ("live/supervisor.py", "Supervisor.__init__", "sleep"): _SEAM,
    ("live/supervisor.py", "GracefulShutdown.wait_out_grace", "sleep"):
        _SEAM,
    ("fleet/exporter.py", "MetricsExporter.__init__", "host"): _DEPLOY,
    ("fleet/transport.py", "ReportListener.__init__", "host"): _DEPLOY,
    ("fleet/transport.py", "ReportListener.__init__", "port"): _DEPLOY,
    ("simnet/network.py", "Network.__init__", "sanitize"):
        "safety code: the per-event sanitizer switch",
    ("simnet/engine.py", "Simulator.__init__", "sanitize"):
        "safety code: the per-event sanitizer switch Network forwards",
    ("fleet/service.py", "FleetConfig.__init__", "vnodes"): _FROZEN,
    ("fleet/service.py", "FleetConfig.__init__", "mailbox_capacity"):
        _FROZEN,
    ("simnet/network.py", "NetworkConfig.__init__", "ack_every"):
        "ROADMAP simulator diet: ACK coalescing goes through it",
}


class Signature:
    """One src ``def``: its defaulted parameters, and the parameter a
    positional argument lands on."""

    def __init__(self, module: Module, qualname: str, node, bound: bool):
        self.module = module
        self.qualname = qualname
        self.config = False     # a config dataclass's synthesized __init__
        #: an inherited field -> ``(module, qualname)`` that declares it
        self.origin: dict[str, tuple[str, str]] = {}
        args = node.args
        positional = args.posonlyargs + args.args
        self.positional = [arg.arg for arg in positional[int(bound):]]
        self.defaults = dict(zip(
            [arg.arg for arg in positional][len(positional)
                                            - len(args.defaults):],
            args.defaults))
        self.defaults |= {arg.arg: default for arg, default in zip(
            args.kwonlyargs, args.kw_defaults) if default is not None}
        #: parameters the body rebinds: forwarding one forwards
        #: something else
        self.rebound = {target.id for stmt in node.body
                        for target in ast.walk(stmt)
                        if isinstance(target, ast.Name)
                        and isinstance(target.ctx, ast.Store)}

    def key(self, param: str) -> tuple[str, str, str]:
        """``(module, qualname, param)`` of the def that declares it."""
        return (*self.origin.get(param, (self.module.name, self.qualname)),
                param)

    @property
    def public(self) -> bool:
        *owner, name = self.qualname.split(".")
        return (not any(part.startswith("_") for part in owner)
                and (name == "__init__" or not name.startswith("_")))


class ParamUse:
    """Which defaulted parameters of src defs a caller passes another
    value, run to a fixed point over values a src def only forwards
    from a parameter of its own."""

    def __init__(self):
        self.sigs: dict[tuple[str, str], Signature] = {}
        self.classes: dict[tuple[str, str], ast.ClassDef] = {}
        for dotted, module in PROJECT.src.items():
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.sigs[dotted, node.name] = Signature(
                        module, node.name, node, False)
                elif isinstance(node, ast.ClassDef):
                    self.classes[dotted, node.name] = node
                    for stmt in node.body:
                        if isinstance(stmt, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                            static = any(getattr(d, "id", None)
                                         == "staticmethod"
                                         for d in stmt.decorator_list)
                            self.sigs[dotted, f"{node.name}.{stmt.name}"] = \
                                Signature(module, f"{node.name}.{stmt.name}",
                                          stmt, not static)
        for (dotted, name), node in self.classes.items():
            if _is_dataclass(node) and name.endswith(CONFIG_SUFFIXES):
                self.sigs[dotted, f"{name}.__init__"] = self.dataclass_init(
                    (dotted, name))
        self.methods: dict[str, list[Signature]] = {}
        for sig in self.sigs.values():
            if "." in sig.qualname:
                self.methods.setdefault(sig.qualname.split(".")[1],
                                        []).append(sig)
        #: (module, qualname, parameter) set by some caller
        self.set: set[tuple[str, str, str]] = set()
        #: (module, qualname, parameter) -> the defaulted parameters of
        #: src defs that forward their value into it
        self.through: dict[tuple, set[tuple]] = {}
        #: attribute names callers load, and string literals
        self.read: set[str] = set()
        #: (path, class, attribute) of every ``self.<attribute>`` store
        self.stored: set[tuple[str, str, str]] = set()
        for module in PROJECT.callers:
            _ParamWalk(self, module).visit(module.tree)
        grown = True
        while grown:
            grown = False
            for key, sources in self.through.items():
                if key not in self.set and sources & self.set:
                    self.set.add(key)
                    grown = True

    def fields(self, key: tuple[str, str]) -> list[tuple]:
        """A dataclass's ``(field, default or None, declaring class)``,
        inherited fields first."""
        node = self.classes[key]
        inherited = [item for base in node.bases
                     for home in self.resolve(key[0], base)
                     if home in self.classes
                     and _is_dataclass(self.classes[home])
                     for item in self.fields(home)]
        return inherited + [
            (stmt.target.id, stmt.value, key) for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and "ClassVar" not in ast.unparse(stmt.annotation)]

    def dataclass_init(self, key: tuple[str, str]) -> Signature:
        """The ``__init__`` signature ``@dataclass`` synthesizes."""
        fields = self.fields(key)
        node = ast.FunctionDef(name="__init__", body=[], args=ast.arguments(
            posonlyargs=[], args=[ast.arg(name) for name, _, _ in fields],
            kwonlyargs=[], kw_defaults=[], defaults=[
                default for _, default, _ in fields if default is not None]))
        sig = Signature(PROJECT.src[key[0]], f"{key[1]}.__init__", node,
                        False)
        sig.config = True
        sig.origin = {name: (home[0], f"{home[1]}.__init__")
                      for name, _, home in fields if home != key}
        return sig

    def init_of(self, target: tuple[str, str], seen=()) -> list[Signature]:
        """The ``__init__`` a call of class ``target`` runs."""
        sig = self.sigs.get((target[0], f"{target[1]}.__init__"))
        if sig is not None:
            return [sig]
        node = self.classes.get(target)
        if node is None or target in seen:
            return []
        return [init for base in node.bases
                for home in self.resolve(target[0], base)
                for init in self.init_of(home, (*seen, target))]

    def resolve(self, module: str, node: ast.expr) -> set[tuple[str, str]]:
        """The src definitions a name or ``module.name`` in ``module``
        reaches through its import bindings."""
        if isinstance(node, ast.Name) and module in PROJECT.src:
            targets = ({(module, node.id)}
                       if node.id in PROJECT.src[module].defined else set())
            for bound, source, imported in PROJECT.src[module].imports:
                if bound == node.id:
                    targets |= PROJECT.resolve(source, imported)
            return {target for target in targets if target[1] is not None}
        return set()

    def pass_value(self, sig: Signature, param: str, value: ast.expr,
                   forwarded: tuple | None) -> None:
        if param not in sig.defaults or _same(value, sig.defaults[param]):
            return
        key = sig.key(param)
        if forwarded is not None:
            self.through.setdefault(key, set()).add(forwarded)
        else:
            self.set.add(key)

    def set_all(self, sig: Signature) -> None:
        self.set |= {sig.key(param) for param in sig.defaults}

    def unset(self) -> list[tuple[str, str, str]]:
        """``(module, def, parameter)`` of every defaulted parameter of
        a public src def or a config that no caller passes otherwise."""
        found = []
        for (dotted, qualname), sig in self.sigs.items():
            path = sig.module.path.relative_to(SRC).as_posix()
            if sig.config or (sig.public
                              and (path, qualname) not in ALLOWLIST):
                found += [(path, qualname, param) for param in sig.defaults
                          if param not in sig.origin
                          and (dotted, qualname, param) not in self.set]
        return found


class _ParamWalk(ast.NodeVisitor):
    """One caller's calls, stores and references of src defs."""

    def __init__(self, use: ParamUse, module: Module):
        self.use = use
        self.module = module
        self.binds = PROJECT.binds(module)
        self.owner: list[ast.ClassDef] = []     # enclosing classes
        self.scopes: list[tuple[Signature | None, ast.AST]] = []

    # -- what a node names --------------------------------------------
    def _targets(self, node: ast.expr) -> set[tuple[str, str]]:
        if isinstance(node, ast.Name):
            targets = {target for target in self.binds.get(node.id, ())
                       if target[1] is not None}
            if self.module.name and node.id in self.module.defined:
                targets.add((self.module.name, node.id))
            return targets
        if isinstance(node, ast.Attribute):
            return {target
                    for base in PROJECT.modules_of(self.binds, node.value)
                    for target in PROJECT.resolve(base, node.attr)
                    if target[1] is not None}
        return set()

    def _sigs_of(self, target: tuple[str, str]) -> list[Signature]:
        if target in self.use.sigs:
            return [self.use.sigs[target]]
        return self.use.init_of(target)

    def callees(self, func: ast.expr) -> list[Signature]:
        use = self.use
        if isinstance(func, ast.Name) and func.id == "cls" and self.owner:
            # a config rebuilt from its own to_dict sets nothing new
            return [sig for sig in use.init_of((self.module.name,
                                                self.owner[-1].name))
                    if not sig.config]
        targets = self._targets(func)
        if targets:
            return [sig for target in targets for sig in self._sigs_of(target)]
        if isinstance(func, ast.Name):
            # a local callable: whichever def or class has the name
            return [sig for (home, name) in
                    {key for key in use.sigs if key[1] == func.id}
                    | {key for key in use.classes if key[1] == func.id}
                    for sig in self._sigs_of((home, name))]
        if not isinstance(func, ast.Attribute):
            return []
        if (isinstance(func.value, ast.Call)
                and getattr(func.value.func, "id", None) == "super"
                and func.attr == "__init__"):
            return [init for base in self.owner[-1].bases
                    for home in self._targets(base)
                    for init in use.init_of(home)]
        owners = self._targets(func.value)
        found = [use.sigs[home, f"{name}.{func.attr}"]
                 for home, name in owners
                 if (home, f"{name}.{func.attr}") in use.sigs]
        return found or list(use.methods.get(func.attr, ()))

    def forwarded(self, value: ast.expr) -> tuple | None:
        """The defaulted parameter of the enclosing src def that
        ``value`` only forwards, if it does."""
        if not isinstance(value, ast.Name):
            return None
        for sig, node in reversed(self.scopes):
            names = {arg.arg for arg in (node.args.posonlyargs
                                         + node.args.args
                                         + node.args.kwonlyargs)}
            if value.id in names:
                if (sig is not None and value.id in sig.defaults
                        and value.id not in sig.rebound):
                    return (sig.module.name, sig.qualname, value.id)
                return None
        return None

    # -- visitors -----------------------------------------------------
    def visit_ClassDef(self, node):
        for base in node.bases:
            self.visit(base)
        self.owner.append(node)
        for stmt in node.body:
            self.visit(stmt)
        self.owner.pop()

    def visit_FunctionDef(self, node):
        qualname = ".".join([owner.name for owner in self.owner[-1:]]
                            + [node.name])
        sig = (self.use.sigs.get((self.module.name, qualname))
               if not self.scopes else None)
        for default in node.args.defaults + [
                d for d in node.args.kw_defaults if d is not None]:
            self.visit(default)
        for decorator in node.decorator_list:
            self.visit(decorator)
        self.scopes.append((sig, node))
        for stmt in node.body:
            self.visit(stmt)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self.scopes.append((None, node))
        self.visit(node.body)
        self.scopes.pop()

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)
            self._store(node.target, node.value)
        self.visit(node.target)

    def visit_Assign(self, node):
        if getattr(node.targets[0], "id", None) == "__slots__":
            return      # a declaration, not a read
        self.generic_visit(node)
        for target in node.targets:
            self._store(target, node.value)

    def visit_AugAssign(self, node):
        self.generic_visit(node)
        self._store(node.target, node.value)

    def _store(self, target: ast.expr, value: ast.expr) -> None:
        for node in ast.walk(target):
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)):
                continue
            if getattr(node.value, "id", None) != "self":
                for sig in self.use.methods.get("__init__", ()):
                    self.use.pass_value(sig, node.attr, value,
                                        self.forwarded(value))
            elif self.module.name and self.owner:
                self.use.stored.add(
                    (self.module.path.relative_to(SRC).as_posix(),
                     self.owner[-1].name, node.attr))

    def _loads(self, node: ast.AST) -> None:
        self.use.read |= {sub.attr for sub in ast.walk(node)
                          if isinstance(sub, ast.Attribute)}

    def visit_Call(self, node):
        func = node.func
        builtin_check = getattr(func, "id", None) in ("isinstance",
                                                       "issubclass")
        if "replace" in (getattr(func, "id", None),
                         getattr(func, "attr", None)):
            for kw in node.keywords:
                for sig in self.use.methods.get("__init__", ()):
                    if sig.config:
                        self.use.pass_value(sig, kw.arg, kw.value,
                                            self.forwarded(kw.value))
        for sig in self.callees(func):
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    for param in sig.positional[index:]:
                        self.use.pass_value(sig, param, arg, None)
                    break
                if index < len(sig.positional):
                    self.use.pass_value(sig, sig.positional[index], arg,
                                        self.forwarded(arg))
            for kw in node.keywords:
                if kw.arg is None:
                    self.use.set_all(sig)
                else:
                    self.use.pass_value(sig, kw.arg, kw.value,
                                        self.forwarded(kw.value))
        # the callee itself is called, not referenced as a value
        if isinstance(func, ast.Attribute):
            self.use.read.add(func.attr)
            self.visit(func.value)
        elif not isinstance(func, ast.Name):
            self.visit(func)
        for arg in node.args:
            if not (builtin_check and isinstance(arg, (ast.Name,
                                                       ast.Attribute,
                                                       ast.Tuple))):
                self.visit(arg)
            else:
                self._loads(arg)
        for kw in node.keywords:
            self.visit(kw.value)

    def visit_ExceptHandler(self, node):
        if node.type is not None:
            self._loads(node.type)
        for stmt in node.body:
            self.visit(stmt)

    def _read_as_value(self, sigs) -> None:
        # its caller may pass anything; a config class is a default_factory
        for sig in sigs:
            if not sig.config:
                self.use.set_all(sig)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.use.read.add(node.attr)
            targets = self._targets(node)
            self._read_as_value(
                [sig for target in targets for sig in self._sigs_of(target)]
                if targets else self.use.methods.get(node.attr, ()))
        self.visit(node.value)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read_as_value([sig for target in self._targets(node)
                                 for sig in self._sigs_of(target)])

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self.use.read.add(node.value)       # getattr(x, "name")

    def visit_arg(self, node):
        pass            # an annotation is not a reference


@cache
def param_use() -> ParamUse:
    return ParamUse()


def test_every_defaulted_parameter_has_a_setter():
    flagged = [f"{module}::{qualname}({param}=)"
               for module, qualname, param in param_use().unset()
               if (module, qualname, param) not in PARAM_ALLOWLIST]
    assert not flagged, (
        f"{len(flagged)} defaulted parameters of public src defs that no "
        "src module, benchmark, example or tool passes anything but the "
        "default (make each a module constant next to its reader, delete "
        "the hook behind it, or allowlist one with a reason):\n  "
        + "\n  ".join(flagged))


def test_every_allowlisted_parameter_exists_and_is_unset():
    # An entry that gained a caller, or whose parameter is gone, is stale.
    stale = [f"{module}::{qualname}({param}=)"
             for module, qualname, param in PARAM_ALLOWLIST
             if (module, qualname, param) not in param_use().unset()]
    assert not stale, f"parameter allowlist entries that are set: {stale}"


# (module, Class.method) -> the one-line reason it stays without a caller.
METHOD_ALLOWLIST = {
    ("core/monitor.py", "HostMonitor.waiting_state"): "Table I of the paper",
    ("core/monitor.py", "HostMonitor.waited_for_source"):
        "Table I of the paper",
}

# (module, Class.attribute) -> the one-line reason it is stored unread.
ATTR_ALLOWLIST: dict[tuple[str, str], str] = {}

#: stdlib base class, as src spells it -> the methods it calls by name
DISPATCHED = {"ast.NodeVisitor": ("visit_",),
              "BaseHTTPRequestHandler": ("do_", "log_message")}


def uncalled_methods() -> list[str]:
    """``module::Class.method`` of every public method or property of a
    src class whose name no caller reads."""
    use = param_use()
    return [f"{sig.module.path.relative_to(SRC).as_posix()}::{qualname}"
            for (dotted, qualname), sig in use.sigs.items()
            if (name := qualname.partition(".")[2])
            and not name.startswith("_") and name not in use.read
            and not any(name.startswith(DISPATCHED.get(ast.unparse(base), ()))
                        for base in use.classes[
                            dotted, qualname.partition(".")[0]].bases)]


def unread_attributes() -> list[str]:
    """``module::Class.attribute`` of every ``self.<attribute>`` store
    in a src class whose name no caller loads."""
    use = param_use()
    return [f"{path}::{owner}.{attr}"
            for path, owner, attr in use.stored if attr not in use.read]


@pytest.mark.parametrize("find, allowlist, what", [
    (uncalled_methods, METHOD_ALLOWLIST, "public methods that no src "
     "module, benchmark, example or tool reads (delete them"),
    (unread_attributes, ATTR_ALLOWLIST, "attributes stored on self that no "
     "src module, benchmark, example or tool reads (delete the store"),
], ids=["methods", "attributes"])
def test_every_member_has_a_reader(find, allowlist, what):
    flagged = [entry for entry in find()
               if tuple(entry.split("::")) not in allowlist]
    assert not flagged, (f"{len(flagged)} {what}, or allowlist one with a "
                         "reason):\n  " + "\n  ".join(flagged))
    # an entry that gained a reader, or whose member is gone, is stale
    stale = [entry for entry in allowlist
             if "::".join(entry) not in find()]
    assert not stale, f"allowlist entries that are not unread: {stale}"
