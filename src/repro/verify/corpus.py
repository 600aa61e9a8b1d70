"""Replayable regression bundles and the on-disk corpus.

Every violation the harness finds is shrunk and serialized as a
*regression bundle*: a small JSON document carrying the property name,
the minimal input (a case dict or a parser text), the generator seed
that produced it, and the expected/actual values at the time of
capture.  Bundles land in ``tests/regressions/`` where
``tests/test_regression_corpus.py`` replays every one of them on every
test run, forever — a fixed bug cannot come back silently, and a fresh
bundle fails CI until the underlying defect is fixed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import VerificationError
from repro.obs.export import config_hash
from repro.utils.atomicio import atomic_write_text
from repro.verify.cases import CASE_SCHEMA, VerifyCase
from repro.verify.oracles import Violation

#: Default corpus location, relative to the repository root.
CORPUS_DIRNAME = "tests/regressions"

BUNDLE_SCHEMA = 1


def bundle_from_violation(violation: Violation, seed: int) -> Dict:
    """Serialize one (ideally already shrunk) violation for replay."""
    from repro._version import __version__

    bundle: Dict = {
        "schema": BUNDLE_SCHEMA,
        "case_schema": CASE_SCHEMA,
        "prop": violation.prop,
        "seed": seed,
        "message": violation.message,
        "expected": _jsonable(violation.expected),
        "actual": _jsonable(violation.actual),
        "version": __version__,
        "captured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if violation.case is not None:
        bundle["case"] = violation.case.to_dict()
    if violation.text is not None:
        bundle["text"] = violation.text
    return bundle


def _jsonable(value: object) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def bundle_name(bundle: Dict) -> str:
    """Stable, content-addressed file name for one bundle."""
    digest = config_hash(
        {"prop": bundle["prop"], "case": bundle.get("case"), "text": bundle.get("text")}
    )
    return f"{bundle['prop']}-{digest[:12]}.json"


def write_bundle(corpus_dir: Union[str, Path], bundle: Dict) -> Path:
    """Atomically publish one bundle into the corpus; returns its path."""
    corpus = Path(corpus_dir)
    corpus.mkdir(parents=True, exist_ok=True)
    path = corpus / bundle_name(bundle)
    atomic_write_text(path, json.dumps(bundle, indent=2, sort_keys=True) + "\n")
    return path


def load_bundle(path: Union[str, Path]) -> Dict:
    """Read and sanity-check one regression bundle."""
    path = Path(path)
    try:
        bundle = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise VerificationError(f"unreadable regression bundle {path}: {exc}") from exc
    if not isinstance(bundle, dict) or "prop" not in bundle:
        raise VerificationError(f"regression bundle {path} has no 'prop' field")
    if "case" not in bundle and "text" not in bundle:
        raise VerificationError(
            f"regression bundle {path} carries neither a case nor a text input"
        )
    return bundle


def load_corpus(corpus_dir: Union[str, Path]) -> List[Path]:
    """All bundle files in the corpus, sorted for deterministic replay."""
    corpus = Path(corpus_dir)
    if not corpus.is_dir():
        return []
    return sorted(p for p in corpus.glob("*.json") if p.is_file())


def replay_bundle(bundle: Dict) -> List[Violation]:
    """Re-run a bundle's property on its stored input.

    Returns the violations found *now*: an empty list means the defect
    the bundle captured is fixed (the permanent regression test
    passes); a non-empty list means it is still present (or back).
    """
    from repro.verify.properties import PROPERTIES

    prop_name = bundle["prop"]
    prop = PROPERTIES.get(prop_name)
    if prop is None:
        raise VerificationError(
            f"regression bundle names unknown property {prop_name!r}; "
            f"available: {sorted(PROPERTIES)}"
        )
    if prop.kind.startswith("text"):
        text = bundle.get("text")
        if text is None:
            raise VerificationError(
                f"property {prop_name!r} replays a text input but the bundle has none"
            )
        return prop.check(text)
    case_data = bundle.get("case")
    if case_data is None:
        raise VerificationError(
            f"property {prop_name!r} replays a case but the bundle has none"
        )
    case = VerifyCase.from_dict(case_data)
    if not case.is_valid():
        raise VerificationError(
            f"regression bundle case is not a valid scenario: {case_data}"
        )
    return prop.check(case)


def replay_corpus(corpus_dir: Union[str, Path]) -> Dict[str, List[Violation]]:
    """Replay every bundle; maps bundle file name -> live violations."""
    outcomes: Dict[str, List[Violation]] = {}
    for path in load_corpus(corpus_dir):
        outcomes[path.name] = replay_bundle(load_bundle(path))
    return outcomes
