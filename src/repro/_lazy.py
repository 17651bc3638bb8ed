"""PEP 562 attribute loading for package ``__init__`` modules.

A package built with :func:`attach` imports none of its submodules up
front: each submodule, and each name it re-exports, is imported on
first attribute access (``from package import name`` included) and then
cached in the package namespace.  This keeps ``import repro.cli``, the
codec and the Monte-Carlo chunk path free of scipy, which only the
analytic Markov solvers need.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def attach(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """Return ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps each submodule name to the names the package
    re-exports from it; ``__all__`` lists those names in order.  Any
    other attribute raises :class:`AttributeError`.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name in origin:
            value = getattr(importlib.import_module(f"{package}.{origin[name]}"), name)
        elif name in exports:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin) | set(exports))

    return __getattr__, __dir__, list(origin)
