"""Project-wide rules: the contracts of the live/fleet stack.

The live service and the fleet rest on conventions no unit test can
sample exhaustively.  Each rule here guards one of them, and each is
kept because it caught a real bug or because nothing else enforces
its contract (the audit table in ``docs/CHECKS.md``):

* **RPR021** — a plain ``open(..., "w")`` write to a durable-looking
  path (checkpoint / report / status / snapshot / bench) that bypasses
  the ``tmp + fsync + os.replace`` idiom of
  :meth:`repro.live.checkpoint.CheckpointManager.save` and
  :func:`repro.fleet.service.publish_json`;
* **RPR022** — a non-primitive value (project-class instance, lambda,
  set, bytes) crossing a spawn boundary: ``Process(args=...)``
  elements and ``make_*_spec`` dict values must stay JSON primitives;
* **RPR024** — ``state_dict`` / ``load_state`` key drift: every
  top-level key a ``state_dict`` writes must be consumed by the paired
  ``load_state`` and vice versa (state a shard worker ships home must
  round-trip into the fleet's merge);
* **RPR025** — unbounded growth: a long-lived ``list`` / ``dict`` /
  ``deque`` appended to with no eviction, bound, or reset anywhere in
  its class (scoped to ``live`` / ``fleet`` directories, plus the
  ``# repro: check-scope concurrency`` opt-in);
* **RPR032** — a resource (open file, socket, ``Process`` / ``Pool``
  / executor, ``ThreadingHTTPServer``, temp dir) acquired without a
  deterministic release on the exception path.

The rules read one module at a time; only RPR022 looks across the
tree, at the set of class names every analyzed file defines.  A
construct the analysis cannot resolve (a dynamic ``open`` mode, a
state payload built at runtime, a handle that escapes) degrades to
silence, never to a false positive.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

from repro.checks.ir import (
    FUNCTION_NODES,
    SCOPE_NODES,
    Finding,
    ModuleAliases,
    expr_tokens,
    finding_at,
    has_scope_pragma,
    is_self_attr,
    name_of,
    walk_local,
)

RULES = {
    "RPR021": "non-atomic write to a durable path (use tmp + fsync + "
              "os.replace)",
    "RPR022": "non-primitive value crossing a spawn boundary",
    "RPR024": "state_dict/load_state key drift",
    "RPR025": "long-lived container grows without bound or eviction",
    "RPR032": "resource acquired without deterministic release on all "
              "paths",
}

#: directories whose classes are long-lived serve-loop state (RPR025)
GROWTH_SCOPE_DIRS = frozenset({"live", "fleet"})

#: path-expression tokens that mark a write as durable (RPR021)
DURABLE_PATH_TOKENS = ("checkpoint", "ckpt", "report", "status",
                       "snapshot", "bench")
#: tokens that mark the temporary half of the atomic-write idiom
_TMP_TOKENS = ("tmp", "temp")

GROWTH_CALLS = frozenset({"append", "appendleft", "add", "extend",
                          "insert"})
SHRINK_CALLS = frozenset({"pop", "popleft", "popitem", "clear",
                          "remove", "discard"})
_CONTAINER_CTORS = frozenset({"list", "dict", "set", "deque",
                              "defaultdict", "OrderedDict", "Counter"})

#: constructor name -> resource label (RPR032)
_RESOURCE_CTORS = {
    "Process": "process handle",
    "Pool": "worker pool",
    "ProcessPoolExecutor": "executor",
    "ThreadPoolExecutor": "executor",
    "ThreadingHTTPServer": "HTTP server",
    "TemporaryDirectory": "temporary directory",
    "NamedTemporaryFile": "temporary file",
    "SpooledTemporaryFile": "temporary file",
}
#: modules the bare-name constructors above may be imported from
_RESOURCE_MODULES = frozenset({
    "multiprocessing", "multiprocessing.context", "multiprocessing.pool",
    "concurrent.futures", "http.server", "socketserver", "tempfile",
})
_SOCKET_CTORS = ("socket", "create_connection", "create_server")
#: method names that release a tracked resource (RPR032)
_RELEASE_METHODS = frozenset({
    "close", "terminate", "shutdown", "cleanup", "join", "stop",
    "kill", "release", "server_close", "unlink", "disconnect",
})
#: parent nodes through which a Load of a handle is only *inspected*
#: (truthiness / comparison), never leaked
_BENIGN_PARENTS = (ast.Compare, ast.BoolOp, ast.UnaryOp, ast.Expr,
                   ast.Assert, ast.If, ast.While, ast.IfExp)


def _unbounded_container(value: ast.expr) -> bool:
    """A container literal or constructor with no ``maxlen``."""
    if isinstance(value, (ast.List, ast.Dict, ast.ListComp,
                          ast.DictComp)):
        return True
    if not isinstance(value, ast.Call) \
            or name_of(value.func) not in _CONTAINER_CTORS:
        return False
    return not (name_of(value.func) == "deque"
                and (len(value.args) >= 2
                     or any(kw.arg == "maxlen"
                            for kw in value.keywords)))


def _parents(root: ast.AST) -> dict:
    return {child: parent for parent in ast.walk(root)
            for child in ast.iter_child_nodes(parent)}


class _ModuleChecker:
    def __init__(self, display: str, tree: ast.Module,
                 growth_scope: bool, classes: frozenset) -> None:
        self.display = display
        self.tree = tree
        self.growth_scope = growth_scope
        self.classes = classes
        self.aliases = ModuleAliases(tree)
        #: module-level def/class names (shadow a builtin -> silence)
        self.module_defs = {node.name for node in tree.body
                            if isinstance(node, SCOPE_NODES)}
        self.findings: list[Finding] = []

    def report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(finding_at(self.display, node, rule,
                                        message))

    def run(self) -> list[Finding]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                self._check_state_pair(node)
                if self.growth_scope:
                    self._check_class_growth(node)
            elif isinstance(node, FUNCTION_NODES):
                self._check_durable_writes(node)
                self._check_spec_function(node)
                self._check_resources(node)
            elif isinstance(node, ast.Call):
                self._check_process_args(node)
        if self.growth_scope:
            self._check_module_growth()
        return self.findings

    # -- RPR021: durable-write atomicity -------------------------------
    def _check_durable_writes(self, fn: ast.AST) -> None:
        if any(isinstance(node, ast.Call)
               and (self.aliases.resolves(node.func, "os", "replace")
                    or self.aliases.resolves(node.func, "os", "rename"))
               for node in walk_local(fn)):
            return
        for node in walk_local(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                path_expr = node.args[0] if node.args else None
                mode_expr = node.args[1] if len(node.args) >= 2 \
                    else None
            elif isinstance(func, ast.Attribute) \
                    and func.attr == "open" \
                    and not (isinstance(func.value, ast.Name)
                             and func.value.id in self.aliases.modules):
                # Path(...).open(...) / path.open(...)
                path_expr = func.value
                mode_expr = node.args[0] if node.args else None
            else:
                continue
            if path_expr is None:
                continue
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode_expr = keyword.value
            if not isinstance(mode_expr, ast.Constant) \
                    or not isinstance(mode_expr.value, str) \
                    or not any(ch in mode_expr.value for ch in "wx"):
                continue  # read, default or dynamic mode: silence
            tokens = expr_tokens(path_expr)
            durable = any(frag in token for token in tokens
                          for frag in DURABLE_PATH_TOKENS)
            temp = any(frag in token for token in tokens
                       for frag in _TMP_TOKENS)
            if durable and not temp:
                self.report(
                    node, "RPR021",
                    f"open(..., {mode_expr.value!r}) writes a durable "
                    f"path in place; publish via tmp + fsync + "
                    f"os.replace (see CheckpointManager.save / "
                    f"fleet.service.publish_json)")

    # -- RPR022: spawn-boundary primitives -----------------------------
    def _nonprimitive(self, node: ast.expr) -> Optional[str]:
        """Reason ``node`` is unsafe to cross a pickle/JSON spec
        boundary, or None when it is (or cannot be proven unsafe)."""
        if isinstance(node, ast.Lambda):
            return "a lambda"
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set (not JSON-serializable)"
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, bytes):
            return "a bytes literal (not JSON-serializable)"
        if isinstance(node, ast.Call):
            name = name_of(node.func)
            if name in self.classes and name[:1].isupper():
                return f"a {name} instance"
            return None
        if isinstance(node, (ast.List, ast.Tuple)):
            values = node.elts
        elif isinstance(node, ast.Dict):
            values = node.values
        else:
            return None
        for value in values:
            reason = self._nonprimitive(value)
            if reason:
                return reason
        return None

    def _check_process_args(self, call: ast.Call) -> None:
        if name_of(call.func) != "Process":
            return
        for keyword in call.keywords:
            if keyword.arg != "args" \
                    or not isinstance(keyword.value,
                                      (ast.Tuple, ast.List)):
                continue
            for element in keyword.value.elts:
                reason = self._nonprimitive(element)
                if reason:
                    self.report(
                        element, "RPR022",
                        f"Process args receive {reason}; spawn "
                        f"boundaries carry primitives only "
                        f"(serialize with json.dumps / to_dict())")

    def _check_spec_function(self, fn: ast.AST) -> None:
        if not (fn.name.startswith("make_")
                and fn.name.endswith("_spec")):
            return
        for node in walk_local(fn):
            if not isinstance(node, ast.Return) \
                    or not isinstance(node.value, ast.Dict):
                continue
            for key, value in zip(node.value.keys, node.value.values):
                reason = self._nonprimitive(value)
                if reason:
                    label = key.value if isinstance(key, ast.Constant) \
                        else "?"
                    self.report(
                        value, "RPR022",
                        f"spec key {label!r} holds {reason}; worker "
                        f"spec dicts must stay JSON primitives "
                        f"(repro.fleet.worker contract)")

    # -- RPR024: state_dict / load_state symmetry ----------------------
    def _check_state_pair(self, cls: ast.ClassDef) -> None:
        methods = {node.name: node for node in cls.body
                   if isinstance(node, FUNCTION_NODES)}
        state_dict = methods.get("state_dict")
        load_state = methods.get("load_state")
        if state_dict is None or load_state is None:
            return
        written = self._state_dict_keys(state_dict)
        read = self._load_state_keys(load_state)
        if not written or not read:
            return  # unresolvable (None) or empty: silence
        for key in sorted(written - read):
            self.report(
                state_dict, "RPR024",
                f"{cls.name}.state_dict() writes key {key!r} that "
                f"load_state() never reads (state schema drift)")
        for key in sorted(read - written):
            self.report(
                load_state, "RPR024",
                f"{cls.name}.load_state() reads key {key!r} that "
                f"state_dict() never writes (state schema drift)")

    @staticmethod
    def _state_dict_keys(fn: ast.AST) -> Optional[set[str]]:
        keys: set[str] = set()
        saw_return = False
        for node in walk_local(fn):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            saw_return = True
            if not isinstance(node.value, ast.Dict):
                return None  # computed payload: degrade to silence
            for key in node.value.keys:
                if isinstance(key, ast.Constant) \
                        and isinstance(key.value, str):
                    keys.add(key.value)
                else:
                    return None  # **spread / dynamic key
        return keys if saw_return else None

    @staticmethod
    def _load_state_keys(fn: ast.AST) -> Optional[set[str]]:
        args = fn.args.posonlyargs + fn.args.args
        if len(args) < 2:
            return None
        param = args[1].arg
        parents = _parents(fn)
        keys: set[str] = set()
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Name) and node.id == param
                    and isinstance(node.ctx, ast.Load)):
                continue
            parent = parents.get(node)
            if isinstance(parent, ast.Subscript) \
                    and parent.value is node:
                if isinstance(parent.slice, ast.Constant) \
                        and isinstance(parent.slice.value, str):
                    keys.add(parent.slice.value)
                    continue
                return None  # dynamic subscript
            if isinstance(parent, ast.Attribute) \
                    and parent.attr == "get":
                call = parents.get(parent)
                if isinstance(call, ast.Call) and call.func is parent \
                        and call.args \
                        and isinstance(call.args[0], ast.Constant) \
                        and isinstance(call.args[0].value, str):
                    keys.add(call.args[0].value)
                    continue
            return None  # the raw state escapes: degrade to silence
        return keys

    # -- RPR025: unbounded growth --------------------------------------
    def _check_class_growth(self, cls: ast.ClassDef) -> None:
        init = next((node for node in cls.body
                     if isinstance(node, FUNCTION_NODES)
                     and node.name == "__init__"), None)
        if init is None:
            return
        growable: set[str] = set()
        for node in walk_local(init):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) \
                    and node.value is not None:
                target, value = node.target, node.value
            else:
                continue
            attr = is_self_attr(target)
            if attr is not None and _unbounded_container(value):
                growable.add(attr)
        if not growable:
            return
        growth_sites: dict[str, int] = {}
        evicted: set[str] = set()

        def visit(node: ast.AST, bounded: frozenset[str]) -> None:
            if isinstance(node, SCOPE_NODES):
                return
            if isinstance(node, (ast.If, ast.While)):
                # growth under ``if len(self.x) < n:`` is bounded
                guard = bounded | {
                    is_self_attr(sub.args[0])
                    for sub in ast.walk(node.test)
                    if isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "len" and sub.args}
                visit(node.test, bounded)
                for stmt in node.body:
                    visit(stmt, guard)
                for stmt in node.orelse:
                    visit(stmt, bounded)
                return
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                attr = is_self_attr(node.func.value)
                if attr in growable:
                    if node.func.attr in GROWTH_CALLS \
                            and attr not in bounded:
                        growth_sites.setdefault(attr, node.lineno)
                    elif node.func.attr in SHRINK_CALLS:
                        evicted.add(attr)
            elif isinstance(node, (ast.Assign, ast.AnnAssign,
                                   ast.AugAssign, ast.Delete)):
                targets = node.targets \
                    if isinstance(node, (ast.Assign, ast.Delete)) \
                    else [node.target]
                for target in targets:
                    attr = is_self_attr(target)
                    if attr is None \
                            and isinstance(target, ast.Subscript) \
                            and (isinstance(node, ast.Delete)
                                 or isinstance(target.slice, ast.Slice)):
                        attr = is_self_attr(target.value)
                    if attr in growable:
                        evicted.add(attr)  # reset / prune / compact
            for child in ast.iter_child_nodes(node):
                visit(child, bounded)

        for method in cls.body:
            if isinstance(method, FUNCTION_NODES) \
                    and method.name != "__init__":
                for stmt in method.body:
                    visit(stmt, frozenset())
        for attr in sorted(set(growth_sites) - evicted):
            site = ast.Name(id=attr, lineno=growth_sites[attr],
                            col_offset=0)
            self.report(
                site, "RPR025",
                f"attribute {attr!r} of {cls.name} grows on every "
                f"call with no eviction, bound, or reset anywhere in "
                f"the class")

    def _check_module_growth(self) -> None:
        containers: set[str] = set()
        evicted: set[str] = set()
        for node in self.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) \
                    and node.value is not None \
                    and isinstance(node.target, ast.Name):
                target, value = node.target, node.value
            else:
                continue
            if target.id in containers:
                evicted.add(target.id)  # reassigned at module level
            if isinstance(value, (ast.List, ast.Dict, ast.Call)) \
                    and _unbounded_container(value):
                containers.add(target.id)
        if not containers:
            return
        growth_sites: dict[str, int] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in containers:
                name = node.func.value.id
                if node.func.attr in GROWTH_CALLS:
                    growth_sites.setdefault(name, node.lineno)
                elif node.func.attr in SHRINK_CALLS:
                    evicted.add(name)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    base = target.value \
                        if isinstance(target, ast.Subscript) else target
                    if isinstance(base, ast.Name):
                        evicted.add(base.id)
            elif isinstance(node, FUNCTION_NODES):
                declared = {name for sub in walk_local(node)
                            if isinstance(sub, ast.Global)
                            for name in sub.names}
                evicted.update(
                    sub.id for sub in walk_local(node)
                    if isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Store)
                    and sub.id in declared)
        for name in sorted(set(growth_sites) - evicted):
            site = ast.Name(id=name, lineno=growth_sites[name],
                            col_offset=0)
            self.report(
                site, "RPR025",
                f"module-level {name!r} grows on every call with no "
                f"eviction, bound, or reassignment")

    # -- RPR032: resource lifecycle ------------------------------------
    def _resource_label(self, call: ast.Call) -> Optional[str]:
        """Label when ``call`` constructs a tracked resource."""
        func = call.func
        name = name_of(func)
        if name is None or name in self.module_defs:
            return None
        if any(self.aliases.resolves(func, "socket", ctor)
               for ctor in _SOCKET_CTORS):
            return "socket"
        if isinstance(func, ast.Name):
            if name == "open":
                return None if "open" in self.aliases.from_names \
                    else "file handle"
            qualified = self.aliases.from_names.get(name)
            if name in _RESOURCE_CTORS and qualified is not None \
                    and qualified.rsplit(".", 1)[0] in _RESOURCE_MODULES:
                return _RESOURCE_CTORS[name]
            return None  # unknown origin: degrade to silence
        if name in _RESOURCE_CTORS:
            return _RESOURCE_CTORS[name]
        if name == "open" and isinstance(func.value, ast.Name) \
                and self.aliases.modules.get(func.value.id) \
                in ("io", "gzip", "bz2", "lzma"):
            return "file handle"
        return None

    def _check_resources(self, fn: ast.AST) -> None:
        acquisitions: list = []
        stores: dict = {}
        for node in walk_local(fn):
            if not isinstance(node, ast.Assign) \
                    or len(node.targets) != 1 \
                    or not isinstance(node.targets[0], ast.Name):
                continue
            name = node.targets[0].id
            if not (isinstance(node.value, ast.Constant)
                    and node.value.value is None):
                stores[name] = stores.get(name, 0) + 1
            # ``h = open(...)`` or ``h = open(...) if cond else None``
            value = node.value
            calls = [value] if isinstance(value, ast.Call) else [
                side for side in (value.body, value.orelse)
                if isinstance(side, ast.Call)] \
                if isinstance(value, ast.IfExp) else []
            for call in calls:
                label = self._resource_label(call)
                if label is not None:
                    acquisitions.append((name, call, label))
                    break
        if not acquisitions:
            return
        # names a nested scope closes over: ownership moved (silence)
        closed_over = {sub.id for node in walk_local(fn)
                       if isinstance(node, SCOPE_NODES)
                       for sub in ast.walk(node)
                       if isinstance(sub, ast.Name)}
        finally_ids = {id(sub) for node in walk_local(fn)
                       if isinstance(node, ast.Try)
                       for stmt in node.finalbody
                       for sub in ast.walk(stmt)}
        parents = _parents(fn)
        for name, call, label in acquisitions:
            if stores.get(name, 0) <= 1 and name not in closed_over:
                self._judge_resource(fn, name, call, label, parents,
                                     finally_ids)

    def _judge_resource(self, fn: ast.AST, name: str, call: ast.Call,
                        label: str, parents: dict,
                        finally_ids: set) -> None:
        acquisition = {id(sub) for sub in ast.walk(call)}
        released_in_finally = False
        straight_release: Optional[str] = None
        for node in walk_local(fn):
            if not (isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load)) \
                    or id(node) in acquisition:
                continue
            parent = parents.get(node)
            if isinstance(parent, ast.withitem):
                return  # managed by a with statement
            if isinstance(parent, ast.Attribute) \
                    and parent.value is node:
                grand = parents.get(parent)
                if isinstance(grand, ast.Call) \
                        and grand.func is parent:
                    if parent.attr in _RELEASE_METHODS:
                        if id(grand) in finally_ids:
                            released_in_finally = True
                        else:
                            straight_release = parent.attr
                    continue  # other method calls only use the handle
                if parent.attr in _RELEASE_METHODS:
                    return  # h.close passed around: registered close
                continue  # plain attribute read (.pid, .exitcode, ...)
            if isinstance(parent, _BENIGN_PARENTS):
                continue  # truthiness / comparison only
            return  # the handle escapes: degrade to silence
        if released_in_finally:
            return
        if straight_release is not None:
            self.report(
                call, "RPR032",
                f"{label} {name!r} is released only on the "
                f"straight-line path; move {name}.{straight_release}() "
                f"into a finally block or use a context manager")
        else:
            self.report(
                call, "RPR032",
                f"{label} {name!r} is never released; use a context "
                f"manager or try/finally")


def check_module(display: str, path: Path, source: str,
                 tree: ast.Module, classes: frozenset) -> list[Finding]:
    """Every project-wide rule over one parsed module, unsuppressed.

    ``classes`` is the set of class names defined anywhere in the
    analyzed tree (RPR022's evidence of a project-class instance).
    """
    growth_scope = bool(GROWTH_SCOPE_DIRS.intersection(path.parts)) \
        or has_scope_pragma(source, "concurrency")
    return _ModuleChecker(display, tree, growth_scope, classes).run()


__all__ = [
    "DURABLE_PATH_TOKENS",
    "GROWTH_SCOPE_DIRS",
    "RULES",
    "check_module",
]
