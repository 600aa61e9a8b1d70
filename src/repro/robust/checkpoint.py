"""Append-only checkpoint journal for resumable batch runs.

Every completed grid point is journalled as one JSON line, so an
interrupted sweep resumes exactly where it stopped: points whose key is
already present with status ``"ok"`` are replayed from the journal
instead of re-executed.

Keys are a stable SHA-256 of the point's parameters *and* a version
string (defaulting to the package version), so a code upgrade silently
invalidates stale checkpoints instead of resuming with mismatched
results.  The journal is written line-at-a-time and fsynced, so a
power loss after :meth:`~CheckpointStore.record` returns cannot lose
the point; a crash *mid*-write at worst truncates the final line,
which the loader tolerates by discarding it.  Long-lived journals
accumulate superseded and failed lines; :meth:`~CheckpointStore
.compact` rewrites the file atomically (temp file + ``os.replace``)
keeping only the latest useful record per key.

Journal line schema::

    {"key": "...", "version": "...", "params": {...},
     "status": "ok" | "failed", "rows": [...], "attempts": N,
     "duration": seconds, "error": "..." | null}
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Protocol, Union

from repro.errors import CheckpointError
from repro.utils.atomicio import atomic_write_text, write_synced


class PointJournal(Protocol):
    """What the executor needs from a journal of completed grid points.

    :class:`CheckpointStore` is the JSONL reference implementation;
    :class:`repro.store.ledger.SweepLedger` is the durable columnar
    one.  Anything satisfying this protocol can be passed wherever a
    ``checkpoint=`` is accepted (``execute_grid``, ``run_sweep``, the
    supervised pool) — the executor only ever keys, reads, tests and
    records points.
    """

    version: str

    def key(self, params: Dict) -> str: ...

    def get(self, params: Dict) -> Optional[Dict]: ...

    def completed(self, params: Dict) -> bool: ...

    def record(
        self,
        params: Dict,
        status: str,
        rows: Optional[List[Dict]] = None,
        attempts: int = 1,
        duration: float = 0.0,
        error: Optional[str] = None,
    ) -> Dict: ...


def parse_journal_lines(
    text: str,
    source: Union[str, Path],
    logger: Optional[logging.Logger] = None,
) -> Iterator[Dict]:
    """Yield the valid journal entries in ``text``, tolerating damage.

    The shared loader for every JSONL point journal (the checkpoint
    file, the ledger's ``active.jsonl`` tail): a crash mid-append at
    worst truncates the final line, and unrelated junk must not poison
    a resume — both are logged and skipped, and the affected point
    simply re-simulates.
    """
    if logger is None:
        logger = logging.getLogger("repro.robust.checkpoint")
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            # A crash mid-write leaves a truncated trailing line;
            # everything before it is still a valid prefix of the
            # run.  The dropped point simply re-simulates on resume.
            logger.warning(
                "journal %s line %d/%d is not valid JSON "
                "(likely truncated by a crash mid-write); dropping it, "
                "the point will be re-simulated",
                source, number, len(lines),
            )
            continue
        if not isinstance(entry, dict) or "key" not in entry:
            logger.warning(
                "journal %s line %d/%d is not a journal entry; "
                "dropping it", source, number, len(lines),
            )
            continue
        yield entry


def journal_entry(
    journal: PointJournal,
    params: Dict,
    status: str,
    rows: Optional[List[Dict]] = None,
    attempts: int = 1,
    duration: float = 0.0,
    error: Optional[str] = None,
) -> Dict:
    """One journal line's entry, as every :class:`PointJournal` records it."""
    return {
        "key": journal.key(params),
        "version": journal.version,
        "params": params,
        "status": status,
        "rows": rows if rows is not None else [],
        "attempts": attempts,
        "duration": duration,
        "error": error,
    }


def journal_line(entry: Dict) -> str:
    """``entry`` serialized as one newline-terminated journal line.

    No ``sort_keys``: row dicts must round-trip with their column order
    intact so resumed output matches a fresh run.
    """
    return json.dumps(entry, default=repr) + "\n"


def point_key(params: Dict, version: str) -> str:
    """Stable content hash of one grid point under one code version."""
    try:
        canonical = json.dumps(
            {"params": params, "version": version},
            sort_keys=True,
            default=repr,
        )
    except TypeError as exc:  # pragma: no cover - default=repr is total
        raise CheckpointError(f"unhashable sweep parameters {params!r}") from exc
    import hashlib

    return hashlib.sha256(canonical.encode()).hexdigest()


class CheckpointStore:
    """JSONL journal of completed grid points, keyed by params + version."""

    def __init__(
        self,
        path: Union[str, Path],
        version: Optional[str] = None,
        resume: bool = True,
    ):
        from repro._version import __version__

        self.path = Path(path)
        self.version = version if version is not None else __version__
        self._entries: Dict[str, Dict] = {}
        if self.path.exists():
            if self.path.is_dir():
                raise CheckpointError(f"checkpoint path is a directory: {self.path}")
            if not resume:
                raise CheckpointError(
                    f"checkpoint {self.path} already exists; pass resume=True "
                    "(CLI: --resume) to continue it, or remove the file"
                )
            self._load()
            logging.getLogger("repro.robust.checkpoint").info(
                "resuming checkpoint %s: %d completed point(s)",
                self.path, len(self._entries),
            )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _load(self) -> None:
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}") from exc
        for entry in parse_journal_lines(text, self.path):
            self._entries[entry["key"]] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Dict]:
        return iter(self._entries.values())

    def key(self, params: Dict) -> str:
        return point_key(params, self.version)

    def get(self, params: Dict) -> Optional[Dict]:
        """The journal entry for ``params``, or ``None`` if never recorded."""
        return self._entries.get(self.key(params))

    def completed(self, params: Dict) -> bool:
        """True when ``params`` already finished successfully."""
        entry = self.get(params)
        return entry is not None and entry.get("status") == "ok"

    @property
    def completed_count(self) -> int:
        return sum(1 for e in self._entries.values() if e.get("status") == "ok")

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def record(
        self,
        params: Dict,
        status: str,
        rows: Optional[List[Dict]] = None,
        attempts: int = 1,
        duration: float = 0.0,
        error: Optional[str] = None,
    ) -> Dict:
        """Journal one finished point (successful or exhausted)."""
        entry = journal_entry(self, params, status, rows, attempts, duration, error)
        try:
            line = journal_line(entry)
        except TypeError as exc:  # pragma: no cover - default=repr is total
            raise CheckpointError(f"unserializable checkpoint entry: {exc}") from exc
        try:
            write_synced(self.path, line)
        except OSError as exc:
            raise CheckpointError(
                f"cannot append to checkpoint {self.path}: {exc}"
            ) from exc
        self._entries[entry["key"]] = entry
        return entry

    def compact(self, drop_failed: bool = True) -> int:
        """Rewrite the journal with only the latest record per key.

        Re-recorded points leave superseded lines behind, and failed
        points (``drop_failed``) are worth retrying on the next resume
        rather than replaying as failures.  The rewrite is atomic: a
        temp file in the same directory is fsynced and then
        ``os.replace``-d over the journal, so a crash at any instant
        leaves either the old complete journal or the new one, never a
        torn file.  Returns the number of journal lines dropped.
        """
        if not self.path.exists():
            return 0
        try:
            raw_lines = [
                line for line in self.path.read_text(encoding="utf-8").splitlines()
                if line.strip()
            ]
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}") from exc

        keep = {
            key: entry
            for key, entry in self._entries.items()
            if not (drop_failed and entry.get("status") != "ok")
        }
        text = "".join(journal_line(entry) for entry in keep.values())
        try:
            atomic_write_text(self.path, text)
        except OSError as exc:
            raise CheckpointError(
                f"cannot compact checkpoint {self.path}: {exc}"
            ) from exc
        self._entries = keep
        return len(raw_lines) - len(keep)
