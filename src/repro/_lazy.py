"""Lazy package surfaces (PEP 562).

Every package ``__init__`` of ``repro`` re-exports its public names
without importing the modules that define them: the first attribute
access imports the defining module and caches the object in the
package namespace, so a process pays only for the subsystems it
touches.  ``repro.Simulator`` stays the identical object as
``repro.engine.simulator.Simulator`` (pickling by reference relies on
it), and ``from repro import *`` resolves every name in ``__all__``.

Usage, at the bottom of a package ``__init__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.engine.simulator": ("Simulator",),
        "repro.engine.results": ("LayerResult", "RunResult"),
    })

Library code imports from the defining module, never from a package
``__init__``; the re-exports are for users.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each defining module to the public names it
    provides.  Any other attribute that names a submodule imports it,
    as it would after an eager ``import package.sub``; everything else
    raises :class:`AttributeError` naming the package.
    """
    origin: Dict[str, str] = {}
    for module, names in exports.items():
        for name in names:
            if module == f"{package}.{name}":
                # ``import package.name`` would bind the submodule over
                # the lazily exported object; such a name must be
                # bound eagerly in the package itself.
                raise ValueError(f"{package}.{name} shadows its own submodule")
            origin[name] = module

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
