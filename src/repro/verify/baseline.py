"""Blessed golden baselines for the paper's reproduced tables and figures.

``repro verify --bless`` freezes the current output of each experiment
in :mod:`repro.experiments.registry` into a self-verifying JSON record
under ``baselines/``: the rows, a content digest over them, the
package version, a UTC timestamp, and a human-supplied *reason* for
the blessing.  ``repro verify --check-golden`` regenerates every
blessed experiment and fails (exit 16) on any drift — a reproduced
number can only change by an explicit re-bless that records *why*,
so silent regressions in the paper's figures cannot merge.

Records are tamper-evident: the stored digest is recomputed from the
stored rows on every check, so a hand-edited baseline is rejected the
same way a drifted result is.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import VerificationError
from repro.experiments.registry import available_experiments, run_experiment
from repro.obs.export import config_hash
from repro.utils.atomicio import atomic_write_json

#: Default store location, relative to the repository root / cwd.
DEFAULT_BASELINE_DIR = "baselines"

BASELINE_SCHEMA = 1


def _rows_digest(experiment: str, rows: List[Dict]) -> str:
    return config_hash({"experiment": experiment, "rows": rows})


def baseline_path(baseline_dir: Union[str, Path], experiment: str) -> Path:
    return Path(baseline_dir) / f"{experiment}.json"


def bless(
    names: Optional[Sequence[str]] = None,
    reason: str = "",
    baseline_dir: Union[str, Path] = DEFAULT_BASELINE_DIR,
) -> List[Path]:
    """Freeze the current rows of the named experiments (all, by default).

    A non-empty ``reason`` is mandatory: the whole point of the bless
    workflow is that every accepted change to a reproduced number
    carries its justification in the record itself.
    """
    if not reason or not reason.strip():
        raise VerificationError(
            "refusing to bless without a reason; pass --reason explaining "
            "why the new numbers are correct"
        )
    chosen = list(names) if names else available_experiments()
    known = set(available_experiments())
    unknown = [name for name in chosen if name not in known]
    if unknown:
        raise VerificationError(
            f"unknown experiment(s) {unknown}; available: {sorted(known)}"
        )
    from repro._version import __version__

    written: List[Path] = []
    for name in chosen:
        rows = run_experiment(name)
        record = {
            "schema": BASELINE_SCHEMA,
            "experiment": name,
            "version": __version__,
            "blessed_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "reason": reason.strip(),
            "digest": _rows_digest(name, rows),
            "rows": rows,
        }
        path = baseline_path(baseline_dir, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, record)
        written.append(path)
    return written


def load_baseline(path: Union[str, Path]) -> Dict:
    """Read one baseline record and verify its self-digest."""
    path = Path(path)
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise VerificationError(f"unreadable baseline {path}: {exc}") from exc
    for key in ("experiment", "digest", "rows", "reason"):
        if key not in record:
            raise VerificationError(f"baseline {path} is missing {key!r}")
    recomputed = _rows_digest(record["experiment"], record["rows"])
    if recomputed != record["digest"]:
        raise VerificationError(
            f"baseline {path} is corrupt or hand-edited: stored digest "
            f"{record['digest']} != recomputed {recomputed}; re-bless it "
            f"with `repro verify --bless {record['experiment']} --reason ...`"
        )
    return record


def blessed_experiments(
    baseline_dir: Union[str, Path] = DEFAULT_BASELINE_DIR,
) -> List[str]:
    """Experiments with a blessed record on disk, sorted."""
    directory = Path(baseline_dir)
    if not directory.is_dir():
        return []
    return sorted(p.stem for p in directory.glob("*.json") if p.is_file())


def _values_match(expected: object, actual: object, rel_tol: float) -> bool:
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected == actual
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        return math.isclose(expected, actual, rel_tol=rel_tol, abs_tol=0.0)
    return expected == actual


def _diff_rows(
    expected: List[Dict], actual: List[Dict], rel_tol: float
) -> Optional[str]:
    """First difference between blessed and regenerated rows, or None."""
    if len(expected) != len(actual):
        return f"row count changed: blessed {len(expected)}, now {len(actual)}"
    for index, (old, new) in enumerate(zip(expected, actual)):
        if set(old) != set(new):
            return (
                f"row {index} keys changed: blessed {sorted(old)}, "
                f"now {sorted(new)}"
            )
        for key in old:
            if not _values_match(old[key], new[key], rel_tol):
                return (
                    f"row {index} field {key!r} drifted: blessed "
                    f"{old[key]!r}, now {new[key]!r}"
                )
    return None


@dataclass
class BaselineReport:
    """Outcome of one ``--check-golden`` pass."""

    checked: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    drifted: Dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.missing and not self.drifted

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] golden baselines: {len(self.checked)} checked"
        if self.missing:
            text += f"; missing: {', '.join(self.missing)}"
        for name, diff in self.drifted.items():
            text += f"; {name} drifted ({diff})"
        return text


def check_baselines(
    names: Optional[Sequence[str]] = None,
    baseline_dir: Union[str, Path] = DEFAULT_BASELINE_DIR,
    rel_tol: float = 0.0,
) -> BaselineReport:
    """Regenerate blessed experiments and diff them against the store.

    Without ``names``, every blessed record is checked; an empty store
    counts every known experiment as missing (nothing was ever
    blessed, so nothing is protected — that is itself a failure).
    """
    report = BaselineReport()
    chosen = list(names) if names else blessed_experiments(baseline_dir)
    if not chosen:
        report.missing = available_experiments()
        return report
    for name in chosen:
        path = baseline_path(baseline_dir, name)
        if not path.is_file():
            report.missing.append(name)
            continue
        record = load_baseline(path)
        rows = run_experiment(name)
        diff = _diff_rows(record["rows"], rows, rel_tol)
        report.checked.append(name)
        if diff is not None:
            report.drifted[name] = diff
    return report


def assert_baselines(
    names: Optional[Sequence[str]] = None,
    baseline_dir: Union[str, Path] = DEFAULT_BASELINE_DIR,
    rel_tol: float = 0.0,
) -> BaselineReport:
    """:func:`check_baselines`, raising on any missing or drifted record."""
    report = check_baselines(names, baseline_dir, rel_tol)
    if not report.passed:
        raise VerificationError(
            report.summary()
            + " — if the new numbers are intentional, re-bless with "
            "`repro verify --bless <experiment> --reason '<why>'`"
        )
    return report
