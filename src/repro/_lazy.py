"""Package exports that import their module on first use.

A package ``__init__`` that re-exports everything pays, on every
import of any submodule, for code most processes never run (a fleet
shard worker does not lint, serve HTTP or inject chaos).  The names
stay importable from the package; the module behind them loads when
one is first asked for::

    if TYPE_CHECKING:                  # what static tools read
        from repro.live.chaos import ChaosPlan
    __getattr__ = lazy_exports(__name__, {"chaos": ("ChaosPlan",)})
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(package: str, modules: Mapping[str, Iterable[str]]
                 ) -> Callable[[str], Any]:
    """A module-level ``__getattr__`` for ``package``: ``modules`` maps
    a submodule to the names it defines for the package."""
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

    return __getattr__
