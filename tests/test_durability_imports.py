"""Only the durable-directory module may lock files or fsync them.

``repro.utils.atomicio`` owns the durability mechanism (flock, fsynced
append, manifest, temp reaping, quarantine); the stores built on it
keep only their policy.  A second ``fcntl`` import or ``os.fsync``
call elsewhere is a copy of that mechanism creeping back in.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

OWNER = "repro/utils/atomicio.py"

#: The supervisor's heartbeat/kill breadcrumbs are per-run scratch files
#: in a private temp dir, overwritten in place by a worker that may
#: ``os._exit`` the next instant and deleted when the run ends: no lock,
#: manifest or quarantine, so not a durable directory at all.
ALLOWED = {("repro/robust/supervisor.py", "_write_json")}


def _uses(path: Path) -> List[Tuple[str, str]]:
    """``(what, enclosing function)`` for each fcntl import / fsync call."""
    found: List[Tuple[str, str]] = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import) and any(
            alias.name == "fcntl" for alias in node.names
        ):
            found.append(("import fcntl", function))
        if isinstance(node, ast.ImportFrom) and node.module == "fcntl":
            found.append(("from fcntl import", function))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "fsync"
        ):
            found.append(("os.fsync", function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_only_atomicio_locks_or_fsyncs():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC.parent).as_posix()
        if relative == OWNER:
            continue
        for what, function in _uses(path):
            if (relative, function) not in ALLOWED:
                offenders.append(f"{relative}: {what} in {function}")
    assert offenders == []


def test_the_owner_and_the_exception_are_real():
    # Guards the guard: a rename must not turn the scan into a no-op.
    assert {what for what, _ in _uses(SRC.parent / OWNER)} >= {
        "import fcntl", "os.fsync",
    }
    supervisor = SRC / "robust" / "supervisor.py"
    assert ("os.fsync", "_write_json") in _uses(supervisor)
