"""Crash-safe file writes and the durable-directory primitives.

Every artifact this package persists (metrics/trace exports, run
results, compacted checkpoint journals, result-store entries, sealed
ledger segments) goes through :func:`atomic_write_bytes`: the payload
is written to a temporary file *in the destination directory* (so the
rename cannot cross filesystems), fsynced, and then ``os.replace``-d
over the target.  A crash — or an OOM kill, or a resource-guard
``os._exit`` — at any instant leaves either the old complete file or
the new one on disk, never a truncated hybrid.

The durable stores (:class:`~repro.store.result_store.ResultStore`,
:class:`~repro.store.ledger.SweepLedger`, the checkpoint journal and
the bench history) share the rest of the mechanism from here, and keep
only their policy (key scheme, record schema, degradation, counters,
log lines) to themselves:

* :func:`flock` — a best-effort exclusive writer lock;
* :func:`write_synced` — an in-place write (by default a one-line
  append) fsynced before returning;
* :func:`append_manifest` / :func:`read_manifest` — a compact JSONL
  manifest and its latest-op-per-name reader, tolerating the torn last
  line a crash mid-append leaves;
* :func:`reap_orphan_temps` — drop the ``.*.tmp`` files a crash in
  :func:`atomic_write_bytes` left behind;
* :func:`quarantine_file` — move a corrupt file into ``corrupt/``
  (evidence preserved), never raising.

Filesystem failures (``ENOSPC``, ``EIO``, a directory that vanished
mid-write) are contained, not leaked: the orphaned temporary file is
unlinked and a typed :class:`~repro.errors.StorageError` is raised so
callers — and the CLI's exit-code table — can distinguish "the disk is
full" from a bug.  ``StorageError`` subclasses ``OSError``, so existing
``except OSError`` guards keep catching it.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

try:  # pragma: no cover - fcntl is stdlib on POSIX, absent on Windows
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from repro.errors import StorageError

#: errno values that mean "the medium failed", worth calling out by name.
_MEDIUM_ERRNOS = {
    errno.ENOSPC: "no space left on device",
    getattr(errno, "EDQUOT", -1): "disk quota exceeded",
    errno.EIO: "I/O error",
}


def _storage_error(action: str, path: Path, exc: OSError) -> StorageError:
    """Wrap an ``OSError`` from the write path as a typed StorageError.

    Built through ``OSError``'s three-argument form so ``errno`` /
    ``strerror`` / ``filename`` are all populated *and* rendered —
    assigning them after a one-argument init would make ``str()`` drop
    the message entirely.
    """
    detail = _MEDIUM_ERRNOS.get(exc.errno or 0)
    reason = detail if detail else (exc.strerror or str(exc))
    return StorageError(exc.errno or 0, f"cannot {action}: {reason}", str(path))


def atomic_write_bytes(path: Union[str, Path], payload: bytes) -> Path:
    """Durably replace ``path``'s contents with binary ``payload``.

    The write is all-or-nothing: readers only ever observe the previous
    complete contents or the new complete contents.  The temporary file
    is cleaned up on failure — including ``ENOSPC``/``EIO``, which
    surface as :class:`~repro.errors.StorageError` — and the original
    file (if any) is left untouched.
    """
    path = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{path.name}.", suffix=".tmp", dir=str(path.parent)
        )
    except OSError as exc:
        raise _storage_error("create temp file beside", path, exc) from exc
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException as failure:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        if isinstance(failure, OSError) and not isinstance(failure, StorageError):
            raise _storage_error("write", path, failure) from failure
        raise
    return path


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Durably replace ``path``'s contents with UTF-8 ``text``."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: Union[str, Path], payload: object, indent: int = 2) -> Path:
    """Serialize ``payload`` as JSON and atomically write it to ``path``."""
    return atomic_write_text(path, json.dumps(payload, indent=indent) + "\n")


def fsync_directory(path: Union[str, Path]) -> None:
    """Flush a directory's entry table (best effort on exotic platforms).

    After ``os.replace`` lands a file, the *directory* entry itself may
    still live only in the page cache; a power loss could forget the
    rename.  The result store fsyncs the entry shard after each put so
    a published entry survives anything short of media failure.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - directory fsync unsupported
        pass
    finally:
        os.close(fd)


@contextmanager
def flock(lock_path: Union[str, Path], enabled: bool = True) -> Iterator[None]:
    """Hold an exclusive ``flock`` on ``lock_path`` for the block.

    Best effort: without ``fcntl``, with ``enabled=False`` (read-only
    or degraded stores) or when the lock file cannot be opened, the
    block simply runs unlocked.
    """
    if fcntl is None or not enabled:
        yield
        return
    try:
        handle = Path(lock_path).open("a")
    except OSError:
        yield
        return
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()


def write_synced(path: Union[str, Path], text: str, mode: str = "a") -> None:
    """Write ``text`` to ``path`` in place and fsync it before returning.

    The default mode appends, so a ``kill -9`` once this returns cannot
    lose the line and a crash mid-call at worst tears the final line —
    which every reader here tolerates.  ``mode="w"`` truncates.
    """
    with Path(path).open(mode, encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())


def append_manifest(path: Union[str, Path], entry: Dict) -> None:
    """Append ``entry`` to a JSONL manifest as one compact, fsynced line."""
    write_synced(path, json.dumps(entry, separators=(",", ":")) + "\n")


def read_manifest(path: Union[str, Path], name_field: str) -> Dict[str, str]:
    """Latest manifest ``op`` per ``entry[name_field]``, tolerating a torn line."""
    ops: Dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return ops
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue  # crash mid-append truncated this line
        if isinstance(entry, dict) and isinstance(entry.get(name_field), str):
            ops[entry[name_field]] = str(entry.get("op", ""))
    return ops


def reap_orphan_temps(directory: Union[str, Path], pattern: str = ".*.tmp") -> int:
    """Delete the temp files matching ``pattern`` under ``directory``.

    Call it under the store's :func:`flock`: live writers hold the lock
    while their temp file exists, so anything visible is a crash orphan.
    Returns how many were removed.
    """
    removed = 0
    for tmp in Path(directory).glob(pattern):
        try:
            tmp.unlink()
            removed += 1
        except OSError:  # pragma: no cover - raced with another opener
            pass
    return removed


def quarantine_file(
    path: Union[str, Path],
    corrupt_dir: Union[str, Path],
    stem: str,
    suffix: str = "",
    move: bool = True,
) -> Optional[Path]:
    """Move ``path`` to ``corrupt_dir/<stem>.<n><suffix>``; never raises.

    ``n`` is the first free slot below 100.  If even the move fails the
    file is unlinked so it cannot be re-read, and failing that it is
    left behind (the next read re-detects it).  ``move=False`` (a
    read-only view) touches nothing.  Returns the quarantined path, or
    ``None`` when nothing was moved.
    """
    if not move:
        return None
    corrupt_dir = Path(corrupt_dir)
    destination: Optional[Path] = None
    for attempt in range(100):
        candidate = corrupt_dir / f"{stem}.{attempt}{suffix}"
        if not candidate.exists():
            destination = candidate
            break
    try:
        corrupt_dir.mkdir(parents=True, exist_ok=True)
        if destination is None:
            raise OSError("quarantine namespace exhausted")
        os.replace(path, destination)
    except OSError:
        destination = None
        try:
            os.unlink(path)
        except OSError:
            pass
    return destination
