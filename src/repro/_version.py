"""Single source of the package version.

The version is read from installed package metadata so ``pip install``
and ``pyproject.toml`` stay authoritative; running straight from a
source checkout (``src/repro`` beside ``pyproject.toml``) uses the
pinned string, which mirrors ``pyproject.toml`` (a test pins the two
together).

``__version__`` is resolved on first access (PEP 562), and a source
checkout never reads metadata: the lookup imports ``importlib.metadata``
and ``email`` and then scans ``sys.path``, only to fail when nothing
was installed.  Read it when it is needed (``from repro._version
import __version__`` inside the function that uses it), not at module
import.
"""

from __future__ import annotations

import os

#: The version of a source checkout; mirrors ``pyproject.toml``.
_SOURCE_VERSION = "1.0.0"


def _source_checkout() -> bool:
    """Whether this package runs from its source tree (``src`` layout)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return os.path.isfile(os.path.join(os.path.dirname(src), "pyproject.toml"))


def __getattr__(name: str) -> str:
    if name != "__version__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if _source_checkout():
        version = _SOURCE_VERSION
    else:
        from importlib import metadata

        try:
            version = metadata.version("repro")
        except metadata.PackageNotFoundError:  # pragma: no cover - depends on install
            version = _SOURCE_VERSION
    globals()["__version__"] = version
    return version
