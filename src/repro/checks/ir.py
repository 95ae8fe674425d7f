"""Shared substrate for every ``repro check`` rule.

* :class:`ParseCache` — one read + one :func:`ast.parse` per file for
  a whole ``repro check`` invocation, with unreadable and unparseable
  files represented explicitly (the driver turns them into RPR000);
* :class:`Finding` and :func:`apply_noqa` — the finding type and the
  ``# repro: noqa`` suppression machinery, including the ``--strict``
  judgement of dead suppressions and of codes the catalog lacks;
* small AST helpers (:func:`walk_local`, :func:`name_of`,
  :func:`is_self_attr`, :func:`expr_tokens`) and
  :class:`ModuleAliases` for stdlib import resolution.

Rule knowledge (what to flag and why) stays in the rule modules.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPE_NODES = FUNCTION_NODES + (ast.Lambda, ast.ClassDef)


# ----------------------------------------------------------------------
# findings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: " \
               f"{self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message}


def finding_at(display: str, node: ast.AST, rule: str,
               message: str) -> Finding:
    return Finding(display, getattr(node, "lineno", 0),
                   getattr(node, "col_offset", 0) + 1, rule, message)


# ----------------------------------------------------------------------
# file discovery and the parse cache
# ----------------------------------------------------------------------
def iter_python_files(paths: Sequence[Union[str, Path]]
                      ) -> Iterator[Path]:
    """Expand files/directories into .py files, deterministically."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for candidate in sorted(entry.rglob("*.py")):
                parts = candidate.parts
                if "__pycache__" in parts \
                        or any(p.startswith(".") for p in parts):
                    continue
                yield candidate
        else:
            yield entry


@dataclass
class SourceFile:
    """One analyzed file: source + AST, or the reason neither exists."""

    path: Path
    display: str
    source: Optional[str]
    tree: Optional[ast.Module]
    syntax_error: Optional[SyntaxError] = None
    read_error: Optional[OSError] = None

    @property
    def ok(self) -> bool:
        return self.tree is not None


class ParseCache:
    """Read and parse each file at most once per invocation.

    :attr:`parse_count` exists so tests can assert exactly that.
    """

    def __init__(self) -> None:
        self._files: dict[Path, SourceFile] = {}
        self.parse_count = 0

    def load(self, path: Union[str, Path]) -> SourceFile:
        path = Path(path)
        cached = self._files.get(path)
        if cached is not None:
            return cached
        display = str(path)
        source: Optional[str] = None
        tree: Optional[ast.Module] = None
        syntax_error: Optional[SyntaxError] = None
        read_error: Optional[OSError] = None
        try:
            source = path.read_text()
        except OSError as error:
            read_error = error
        else:
            self.parse_count += 1
            try:
                tree = ast.parse(source, filename=display)
            except SyntaxError as error:
                syntax_error = error
        record = SourceFile(path, display, source, tree,
                            syntax_error, read_error)
        self._files[path] = record
        return record

    def files(self, paths: Sequence[Union[str, Path]]
              ) -> list[SourceFile]:
        return [self.load(path) for path in iter_python_files(paths)]


# ----------------------------------------------------------------------
# suppression comments and scope pragmas
# ----------------------------------------------------------------------
NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa"
    r"(?:\s+(?P<codes>RPR\d{3}(?:\s*,\s*RPR\d{3})*))?")

_PRAGMA_CACHE: dict[str, re.Pattern] = {}


def has_scope_pragma(source: str, keyword: str) -> bool:
    """``# repro: check-scope <keyword>`` within the first 5 lines."""
    pattern = _PRAGMA_CACHE.get(keyword)
    if pattern is None:
        pattern = re.compile(
            rf"#\s*repro:\s*check-scope\s+{keyword}\b")
        _PRAGMA_CACHE[keyword] = pattern
    head = "\n".join(source.splitlines()[:5])
    return pattern.search(head) is not None


def apply_noqa(findings: list[Finding], source: str, path: str,
               strict: bool, catalog: Iterable[str]) -> list[Finding]:
    """Filter suppressed findings; in strict mode flag dead noqa.

    Every rule in ``catalog`` has run over the file, so under
    ``--strict`` a suppression is judged once and for all: a comment
    matching no finding on its line, a named code matching none, and a
    code ``catalog`` does not contain are each reported as RPR006.
    """
    suppressors: dict[int, Optional[set[str]]] = {}
    try:
        tokens = list(tokenize.generate_tokens(
            io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        tokens = []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = NOQA_PATTERN.search(token.string)
        if match is None:
            continue
        codes = match.group("codes")
        suppressors[token.start[0]] = None if codes is None else \
            {code.strip() for code in codes.split(",")}
    if not suppressors:
        return findings
    kept: list[Finding] = []
    used_codes: dict[int, set[str]] = {}
    for finding in findings:
        allowed = suppressors.get(finding.line, ...)
        if allowed is ... or (allowed is not None
                              and finding.rule not in allowed):
            kept.append(finding)
        else:
            used_codes.setdefault(finding.line, set()).add(
                finding.rule)
    if not strict:
        return kept
    known = set(catalog)
    for line_no in sorted(suppressors):
        codes = suppressors[line_no]
        used = used_codes.get(line_no, set())
        for code in sorted((codes or set()) - known):
            kept.append(Finding(
                path, line_no, 1, "RPR006",
                f"suppressed code {code} is not in the rule catalog"))
        if codes is not None:
            codes = codes & known
            if not codes:
                continue
        if not used:
            kept.append(Finding(
                path, line_no, 1, "RPR006",
                "suppression comment does not match any finding on "
                "this line"))
        elif codes is not None:
            for code in sorted(codes - used):
                kept.append(Finding(
                    path, line_no, 1, "RPR006",
                    f"suppressed code {code} matches no finding on "
                    f"this line"))
    return kept


# ----------------------------------------------------------------------
# small AST helpers
# ----------------------------------------------------------------------
def name_of(node: ast.expr) -> Optional[str]:
    """``x`` -> ``"x"``, ``a.b`` -> ``"b"``, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def is_self_attr(node: ast.expr) -> Optional[str]:
    """``self.attr`` -> ``"attr"``, else None."""
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def expr_tokens(node: ast.expr) -> set[str]:
    """Lower-cased identifier and string fragments of an expression."""
    tokens: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            tokens.add(sub.id.lower())
        elif isinstance(sub, ast.Attribute):
            tokens.add(sub.attr.lower())
        elif isinstance(sub, ast.Constant) \
                and isinstance(sub.value, str):
            tokens.add(sub.value.lower())
    return tokens


def walk_local(root: ast.AST) -> Iterator[ast.AST]:
    """Yield descendants of ``root`` without entering nested function,
    lambda, or class scopes (statements belong to their innermost
    scope)."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, SCOPE_NODES):
            continue
        stack.extend(ast.iter_child_nodes(node))


class ModuleAliases:
    """Local names of imported modules / imported names, for resolving
    stdlib calls (``mp.Process``, ``from os import replace``)."""

    def __init__(self, tree: ast.Module) -> None:
        self.modules: dict[str, str] = {}
        self.from_names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    self.modules[alias.asname or root] = root
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_names[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"

    def resolves(self, func: ast.expr, module: str, name: str) -> bool:
        """Does ``func`` denote ``module.name``?"""
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            return self.modules.get(func.value.id) == module \
                and func.attr == name
        if isinstance(func, ast.Name):
            return self.from_names.get(func.id) == f"{module}.{name}"
        return False


__all__ = [
    "FUNCTION_NODES",
    "Finding",
    "ModuleAliases",
    "ParseCache",
    "SCOPE_NODES",
    "SourceFile",
    "apply_noqa",
    "expr_tokens",
    "finding_at",
    "has_scope_pragma",
    "is_self_attr",
    "iter_python_files",
    "name_of",
    "walk_local",
]
