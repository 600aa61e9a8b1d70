"""Serialize traces and metrics: Chrome trace-event JSON and JSONL.

Three output formats, all JSON-loadable:

* **Chrome trace-event / Perfetto** (:func:`write_chrome_trace`) — the
  ``{"traceEvents": [...]}`` object form, openable directly in
  https://ui.perfetto.dev or ``chrome://tracing``.  Spans are complete
  events (``"ph": "X"`` with microsecond ``ts``/``dur``), tracer events
  are instants (``"ph": "i"``), and the file's ``metadata`` block
  carries the package version and config hash so every artifact is
  attributable to an exact run.
* **Metrics JSON** (:func:`write_metrics_json`) — the registry snapshot
  (counters / gauges / histogram percentiles) under the same header.
* **JSONL event log** (:func:`write_event_jsonl`) — one JSON object per
  line, header first, for ``grep``/stream processing of long runs.

All three writers are crash-safe: the document is serialized in memory
and lands via :func:`repro.utils.atomicio.atomic_write_text` (temp file
+ fsync + rename), so a crash mid-export never leaves a truncated
artifact behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import PHASE_COMPLETE, SpanRecord, Tracer
from repro.utils.atomicio import atomic_write_text

PathLike = Union[str, Path]


def config_hash(payload: object) -> str:
    """Short deterministic hash of any JSON-representable payload.

    Used to stamp trace/metrics files with the configuration (CLI
    argument vector, config description, ...) that produced them.
    """
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run_metadata(
    config_digest: Optional[str] = None,
    extra: Optional[Dict] = None,
) -> Dict:
    """The reproducibility header shared by every exported file."""
    from repro._version import __version__

    meta = {
        "tool": "scalesim-repro",
        "version": __version__,
        "config_hash": config_digest,
        "created_unix": time.time(),
    }
    if extra:
        meta.update(extra)
    return meta


def _span_to_event(record: SpanRecord, pid: int) -> Dict:
    event = {
        "name": record.name,
        "cat": record.category,
        "ph": record.phase,
        "ts": record.start_ns / 1000.0,  # trace-event timestamps are in us
        "pid": pid,
        "tid": record.thread_id,
        "args": {**record.args, "depth": record.depth},
    }
    if record.phase == PHASE_COMPLETE:
        event["dur"] = record.duration_ns / 1000.0
        event["args"]["self_us"] = record.self_ns / 1000.0
    else:
        event["s"] = "t"  # instant scope: thread
    return event


def chrome_trace_events(tracer: Tracer) -> List[Dict]:
    """The tracer's records as Chrome trace-event dicts, in time order."""
    pid = os.getpid()
    events = [_span_to_event(record, pid) for record in tracer.records()]
    events.sort(key=lambda event: event["ts"])
    return events


def write_chrome_trace(
    tracer: Tracer,
    path: PathLike,
    metadata: Optional[Dict] = None,
) -> Path:
    """Write the tracer's buffer as a Perfetto-openable trace file."""
    doc = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "metadata": metadata if metadata is not None else run_metadata(),
    }
    return atomic_write_text(path, json.dumps(doc, indent=1, default=repr))


def write_metrics_json(
    registry: MetricsRegistry,
    path: PathLike,
    metadata: Optional[Dict] = None,
) -> Path:
    """Write the registry snapshot under the reproducibility header."""
    doc = {
        "metadata": metadata if metadata is not None else run_metadata(),
        **registry.snapshot(),
    }
    return atomic_write_text(path, json.dumps(doc, indent=1, default=repr))


def write_event_jsonl(
    tracer: Tracer,
    path: PathLike,
    metadata: Optional[Dict] = None,
) -> Path:
    """Write every record as one JSON line, header line first."""
    header = {"type": "header", **(metadata if metadata is not None else run_metadata())}
    lines = [json.dumps(header, default=repr)]
    for record in tracer.records():
        lines.append(
            json.dumps(
                {
                    "type": "span" if record.phase == PHASE_COMPLETE else "event",
                    "name": record.name,
                    "cat": record.category,
                    "ts_us": record.start_ns / 1000.0,
                    "dur_us": record.duration_ns / 1000.0,
                    "self_us": record.self_ns / 1000.0,
                    "tid": record.thread_id,
                    "depth": record.depth,
                    "args": record.args,
                },
                default=repr,
            )
        )
    return atomic_write_text(path, "\n".join(lines) + "\n")


def load_trace(path: PathLike) -> Dict:
    """Load a Chrome trace file, validating its basic shape."""
    with Path(path).open() as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(f"{path}: not a Chrome trace-event file (no traceEvents)")
    return doc


def load_metrics(path: PathLike) -> Dict:
    """Load a metrics JSON file, validating its basic shape."""
    with Path(path).open() as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "counters" not in doc:
        raise ValueError(f"{path}: not a metrics file (no counters)")
    return doc
