"""Disk-backed, content-addressed, crash-safe simulation result store.

This is the cross-run promotion of :mod:`repro.perf.cache`'s in-process
LRU: one JSON record per simulation key, so identical grid points —
across sweeps, processes, clients and machines sharing a filesystem —
simulate **once, ever**.

Layout (one directory per store)::

    <root>/
      manifest.wal          append-only JSONL journal of publishes
      lock                  flock target serializing writers
      entries/<k0k1>/<key>.json
      corrupt/<key>.<n>.json   quarantined records (never re-read)

Durability contract
-------------------
* **Atomic publish.**  Every entry lands via
  :func:`repro.utils.atomicio.atomic_write_text` (temp file in the
  shard directory + fsync + ``os.replace``) followed by a directory
  fsync, so a reader observes either a complete record or a miss —
  never a partial file, even across ``kill -9`` or power loss.
* **Self-verifying records.**  Each record carries a schema version and
  a SHA-256 checksum of its canonical payload.  A bit-flipped, torn,
  truncated or schema-stale record is *detected on read*, moved to the
  ``corrupt/`` sidecar (preserving the evidence), counted, and reported
  as a miss — the caller transparently recomputes, and the next put
  heals the entry.  Corruption can never poison results.
* **Recoverable journal.**  ``manifest.wal`` is appended (fsynced)
  after each publish.  :meth:`ResultStore.recover` — run on every
  writable open — deletes orphaned temp files left by a crash mid-write
  and re-journals entries that published but died before their WAL
  append, so the manifest converges to the truth instead of diverging
  after a ``kill -9``.
* **Concurrent writers.**  Publishes take an ``flock`` on ``<root>/
  lock`` (best effort where ``fcntl`` is unavailable); the atomic
  rename makes same-key races safe regardless — last complete record
  wins, both are valid.
* **Graceful degradation.**  ``ENOSPC``/``EIO``/vanished directories
  during a put flip the store to **compute-only mode** (reads continue,
  writes stop, one warning is logged) instead of failing the
  simulation; :meth:`status` surfaces the degradation for health
  endpoints.

Observability: ``store.hits`` / ``store.misses`` / ``store.writes`` /
``store.quarantined`` / ``store.errors`` / ``store.recovered`` counters
mirror into :mod:`repro.obs.metrics` and are always available locally
via :meth:`ResultStore.status`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.errors import StorageError, StoreCorruptionError
from repro.obs import metrics
from repro.utils.atomicio import (
    append_manifest,
    atomic_write_text,
    flock,
    fsync_directory,
    quarantine_file,
    read_manifest,
    reap_orphan_temps,
)

logger = logging.getLogger("repro.store")

#: Wire-format version of entry records; readers quarantine any other.
SCHEMA_VERSION = 1

#: A key is a content hash: lowercase hex, as produced by
#: :func:`repro.obs.config_hash` (16 chars) or any sha256 prefix.
_KEY_CHARS = set("0123456789abcdef")


def payload_checksum(payload: Dict) -> str:
    """Canonical SHA-256 of a JSON payload (order-insensitive)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def valid_key(key: str) -> bool:
    return (
        isinstance(key, str)
        and 8 <= len(key) <= 64
        and all(ch in _KEY_CHARS for ch in key)
    )


class ResultStore:
    """One content-addressed store rooted at a directory.

    Thread-safe; multiple processes may share the same root (see the
    module docstring for the concurrency contract).  ``writable=False``
    opens a read-only view that never mutates the directory — useful
    for inspection tooling.
    """

    def __init__(
        self,
        root: Union[str, Path],
        writable: bool = True,
        version: Optional[str] = None,
    ):
        from repro._version import __version__

        self.root = Path(root)
        self.version = version if version is not None else __version__
        self.entries_dir = self.root / "entries"
        self.corrupt_dir = self.root / "corrupt"
        self.manifest_path = self.root / "manifest.wal"
        self.lock_path = self.root / "lock"
        self._mutex = threading.Lock()
        self._writable = writable
        self._read_only = not writable
        self.degraded_reason: Optional[str] = None
        self._counts = {
            "hits": 0, "misses": 0, "writes": 0,
            "quarantined": 0, "errors": 0, "recovered": 0,
        }
        if self.root.exists() and not self.root.is_dir():
            raise StoreCorruptionError(f"store root {self.root} is not a directory")
        if writable:
            try:
                self.entries_dir.mkdir(parents=True, exist_ok=True)
                self.corrupt_dir.mkdir(parents=True, exist_ok=True)
                self.lock_path.touch(exist_ok=True)
            except OSError as exc:
                raise StoreCorruptionError(
                    f"cannot initialize result store at {self.root}: {exc}"
                ) from exc
            self.recover()

    # ------------------------------------------------------------------
    # Bookkeeping helpers
    # ------------------------------------------------------------------
    def _count(self, name: str, delta: int = 1) -> None:
        with self._mutex:
            self._counts[name] += delta
        if metrics.enabled:
            metrics.counter(f"store.{name}").add(delta)

    def entry_path(self, key: str) -> Path:
        return self.entries_dir / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict]:
        """The verified payload stored under ``key``, or ``None``.

        Any record that fails validation — unparsable JSON, wrong key,
        stale schema, checksum mismatch — is quarantined and reported
        as a miss so the caller recomputes.
        """
        path = self.entry_path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self._count("misses")
            return None
        except OSError as exc:
            self._count("errors")
            logger.warning("store read failed for %s: %s", key, exc)
            self._count("misses")
            return None
        problem = None
        record: Optional[Dict] = None
        try:
            loaded = json.loads(text)
            record = loaded if isinstance(loaded, dict) else None
        except json.JSONDecodeError as exc:
            problem = f"unparsable JSON ({exc})"
        if problem is None:
            problem = self._validate(key, record)
        if problem is not None:
            self.quarantine(key, problem)
            self._count("misses")
            return None
        return self._hit(record)

    def _hit(self, record: Dict) -> Dict:
        self._count("hits")
        return record["payload"]

    def _validate(self, key: str, record: Optional[Dict]) -> Optional[str]:
        """Why ``record`` must not be trusted, or ``None`` if it is sound."""
        if record is None:
            return "record is not a JSON object"
        if record.get("schema") != SCHEMA_VERSION:
            return f"stale schema {record.get('schema')!r} (want {SCHEMA_VERSION})"
        if record.get("key") != key:
            return f"key mismatch (record says {record.get('key')!r})"
        payload = record.get("payload")
        if not isinstance(payload, dict):
            return "missing payload"
        checksum = payload_checksum(payload)
        if record.get("checksum") != checksum:
            return (
                f"checksum mismatch (recorded {record.get('checksum')!r}, "
                f"computed {checksum!r})"
            )
        return None

    def __contains__(self, key: str) -> bool:
        return self.entry_path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[str]:
        if not self.entries_dir.is_dir():
            return
        for shard in sorted(self.entries_dir.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                yield path.stem

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, key: str, payload: Dict, meta: Optional[Dict] = None) -> bool:
        """Durably publish ``payload`` under ``key``.

        Returns ``True`` when the entry landed, ``False`` when the
        store is (or just became) compute-only.  Storage failures
        degrade the store instead of raising; programming errors
        (invalid key, unserializable payload) still raise.
        """
        if not valid_key(key):
            raise StoreCorruptionError(f"invalid store key {key!r}")
        if not self._writable:
            return False
        record = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "version": self.version,
            "created_unix": time.time(),
            "checksum": payload_checksum(payload),
            "payload": payload,
        }
        if meta:
            record["meta"] = meta
        text = json.dumps(record, separators=(",", ":"))
        path = self.entry_path(key)
        try:
            with flock(self.lock_path, self._writable):
                path.parent.mkdir(parents=True, exist_ok=True)
                atomic_write_text(path, text)
                fsync_directory(path.parent)
                self._append_manifest(
                    {"op": "put", "key": key, "checksum": record["checksum"]}
                )
        except (StorageError, OSError) as exc:
            self._degrade(f"put {key} failed: {exc}")
            return False
        self._count("writes")
        return True

    def _append_manifest(self, entry: Dict) -> None:
        append_manifest(
            self.manifest_path, {**entry, "ts": time.time(), "pid": os.getpid()}
        )

    def _degrade(self, reason: str) -> None:
        """Flip to compute-only mode; simulation continues without persistence."""
        self._count("errors")
        if self._writable:
            self._writable = False
            self.degraded_reason = reason
            if metrics.enabled:
                metrics.gauge("store.degraded").set(1)
            logger.warning(
                "result store %s degraded to compute-only mode: %s",
                self.root, reason,
            )

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def quarantine(self, key: str, reason: str) -> Optional[Path]:
        """Move ``key``'s record into ``corrupt/`` (evidence preserved).

        Never raises (see :func:`~repro.utils.atomicio.quarantine_file`).
        A read-only view counts the corrupt record but moves nothing.
        """
        destination = quarantine_file(
            self.entry_path(key), self.corrupt_dir, key, ".json",
            move=not self._read_only,
        )
        self._count("quarantined")
        if metrics.enabled:
            metrics.counter("store.corrupt_detected").add()
        logger.warning(
            "quarantined corrupt store entry %s (%s)%s",
            key, reason,
            f" -> {destination}" if destination else "",
        )
        if self._writable:
            try:
                with flock(self.lock_path, self._writable):
                    self._append_manifest(
                        {"op": "quarantine", "key": key, "reason": reason}
                    )
            except OSError as exc:
                self._degrade(f"manifest append failed: {exc}")
        return destination

    def quarantined(self) -> List[Path]:
        if not self.corrupt_dir.is_dir():
            return []
        return sorted(self.corrupt_dir.glob("*.json"))

    # ------------------------------------------------------------------
    # Recovery & verification
    # ------------------------------------------------------------------
    def manifest_keys(self) -> Dict[str, str]:
        """Latest manifest op per key, tolerating a torn final line."""
        return read_manifest(self.manifest_path, "key")

    def recover(self) -> Dict[str, int]:
        """Repair after a crash: drop orphan temp files, heal the manifest.

        Returns counts of what was repaired.  Safe to run at every
        open; a clean store is a no-op.
        """
        repairs = {"orphan_tmp": 0, "rejournaled": 0}
        if self.entries_dir.is_dir():
            # Under the flock: live writers hold it while their temp file
            # exists, so anything visible here is a genuine crash orphan.
            with flock(self.lock_path, self._writable):
                repairs["orphan_tmp"] = reap_orphan_temps(
                    self.entries_dir, "*/.*.tmp"
                )
        journalled = self.manifest_keys()
        missing = [
            key for key in self.keys()
            if journalled.get(key) != "put"
        ]
        for key in missing:
            try:
                with flock(self.lock_path, self._writable):
                    self._append_manifest({"op": "put", "key": key, "recovered": True})
                repairs["rejournaled"] += 1
            except OSError as exc:
                self._degrade(f"manifest recovery failed: {exc}")
                break
        total = sum(repairs.values())
        if total:
            self._count("recovered", total)
            logger.info(
                "store recovery at %s: %d orphan temp file(s) removed, "
                "%d entry(ies) re-journalled",
                self.root, repairs["orphan_tmp"], repairs["rejournaled"],
            )
        return repairs

    def verify(self) -> Dict[str, int]:
        """Deep-check every entry; quarantine the ones that fail.

        Reuses the read-path validation, so ``verify`` + retry is
        exactly equivalent to hitting each key once.
        """
        summary = {"checked": 0, "ok": 0, "quarantined": 0}
        for key in list(self.keys()):
            summary["checked"] += 1
            path = self.entry_path(key)
            problem: Optional[str]
            try:
                loaded = json.loads(path.read_text(encoding="utf-8"))
                record = loaded if isinstance(loaded, dict) else None
                problem = self._validate(key, record)
            except (OSError, json.JSONDecodeError) as exc:
                problem = f"unreadable ({exc})"
            if problem is None:
                summary["ok"] += 1
            else:
                self.quarantine(key, problem)
                summary["quarantined"] += 1
        return summary

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def writable(self) -> bool:
        return self._writable

    def status(self) -> Dict:
        """Health snapshot for ``/health`` and the CLI."""
        with self._mutex:
            counts = dict(self._counts)
        return {
            "root": str(self.root),
            "schema": SCHEMA_VERSION,
            "version": self.version,
            "entries": len(self),
            "corrupt": len(self.quarantined()),
            "mode": "readwrite" if self._writable else "compute-only",
            "degraded_reason": self.degraded_reason,
            **counts,
        }
