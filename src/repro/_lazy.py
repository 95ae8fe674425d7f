"""Package exports that import their module on first use.

A package exports only the names some caller imports from it, and
always the same way: one map from each defining module (relative to
the package) to the names it gives the package.  The module behind a
name loads when the name is first asked for, so importing one
submodule never pays for the rest (a fleet shard worker does not
lint, serve HTTP or inject chaos)::

    __getattr__, __all__ = lazy_exports(__name__, {
        "checkpoint": ("CheckpointManager", "resume_or_create"),
        "pipeline": ("LivePipeline",),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(package: str, modules: Mapping[str, Iterable[str]]
                 ) -> tuple[Callable[[str], Any], list[str]]:
    """The module-level ``__getattr__`` and ``__all__`` for
    ``package``: ``modules`` maps a defining module, relative to
    ``package``, to the names it exports through the package."""
    home = {name: module for module, names in modules.items()
            for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(
            importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__, list(home)
