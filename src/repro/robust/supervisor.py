"""Supervised worker pool: crash recovery, resource guards, graceful shutdown.

:func:`execute_grid_supervised` is the multiprocess grid backend behind
``execute_grid(workers=N)``.  It keeps the PR-4 contract — rows, CSVs,
checkpoint journals and reports byte-identical to a serial run — while
surviving the failure modes a bare :class:`ProcessPoolExecutor` turns
into unhandled tracebacks:

* **Dead workers.**  A worker killed by a signal, a segfault or the OOM
  killer breaks the pool; the supervisor reads its scratch-dir
  breadcrumbs to attribute the crash to the point(s) that were running,
  rebuilds the pool, and resubmits every unsettled point (results that
  already came back are kept, not recomputed).
* **Runaway points.**  A watchdog thread *inside each worker* enforces
  the per-point wall-clock and RSS ceilings: on breach it journals a
  kill breadcrumb and the worker kills itself with ``os._exit``, so a
  runaway simulation can never take the host down with it.
* **Hung workers.**  The watchdog also heartbeats; with
  ``heartbeat_timeout`` set, the parent SIGKILLs any worker whose
  heartbeat goes stale (e.g. a process stopped or wedged in C code),
  which funnels into the normal crash-recovery path.
* **Crash loops.**  A point that crashes the pool ``quarantine_after``
  times is retried once *alone* in a dedicated single-worker pool; if
  that also dies the point is quarantined as a failed
  :class:`~repro.robust.report.PointRecord` (counted against
  ``max_failures``), and the sweep moves on.  Points that merely hit
  transient crashes finish with records identical to a clean serial
  run, so determinism is preserved.  Once the pool has been rebuilt
  ``max_restarts`` times, :class:`~repro.errors.SupervisorExhaustedError`
  aborts the run (CLI exit code 13).
* **Operator interrupts.**  SIGINT/SIGTERM handlers installed for the
  duration of the run drain every completed future in points order,
  flush their journal lines (the checkpoint store fsyncs each one), and
  raise :class:`~repro.errors.SweepInterrupted` (CLI exit code 12) so
  ``--resume`` continues exactly where the run stopped.

Scratch-dir protocol (one temporary directory per run, shared with the
workers):

* ``started-<index>.json`` — written by a worker when it begins a
  point (key, pid, timestamp); removed when the point returns.  On a
  pool crash, lingering files identify the suspects.
* ``kill-<index>.json`` — written by the resource watchdog just before
  ``os._exit``, recording the reason (``wall_clock`` / ``rss``) and the
  measured usage, so resource kills are classified, not anonymous.
* ``hb-<index>.json`` — touched by the watchdog every poll interval;
  the parent treats a stale mtime as a hung worker.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import importlib
import json
import logging
import os
import pickle
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from repro.errors import SupervisorExhaustedError, SweepInterrupted, WorkerCrashError
from repro.obs import metrics, trace
from repro.obs.progress import ProgressSnapshot
from repro.obs.service import CORRELATION_KEY, correlation_id_from_env
from repro.obs.tracer import SpanRecord
from repro.robust.checkpoint import PointJournal
from repro.robust.policy import ExecutionPolicy
from repro.robust.report import STATUS_FAILED, PointRecord, RunReport

logger = logging.getLogger("repro.robust.supervisor")

#: Exit code a worker uses when its resource watchdog kills the process.
RESOURCE_KILL_EXIT = 70

#: Prefix of the per-run scratch directories under the system tempdir.
SCRATCH_PREFIX = "repro-supervisor-"

#: Imported by the parent before its workers fork (see
#: ``_Supervisor._make_pool``): the simulation core every pooled sweep,
#: experiment and DRAM replay point runs on.
_FORK_PRELOAD = (
    "repro.engine.simulator",
    "repro.engine.tracefiles",
    "repro.dram.simulator",
)

#: A scratch dir untouched this long belongs to a run that died without
#: reaching its ``finally`` (SIGKILL, power loss); reap it on the next
#: supervised run's startup.  Generous enough that a live concurrent
#: run — whose heartbeat breadcrumbs keep refreshing the mtime — is
#: never collected.
SCRATCH_STALE_SECONDS = 24 * 3600.0


def reap_stale_scratch(
    max_age_seconds: float = SCRATCH_STALE_SECONDS,
    root: Optional[Path] = None,
) -> int:
    """Remove abandoned supervisor scratch dirs; returns how many.

    A run killed with SIGKILL (or the machine losing power) never runs
    the ``rmtree`` in :func:`execute_grid_supervised`'s ``finally``, so
    breadcrumb dirs accumulate in the tempdir.  Each supervised run
    sweeps its siblings on startup: any ``repro-supervisor-*`` dir
    whose newest content is older than ``max_age_seconds`` is removed.
    Active runs are safe — their heartbeat files are rewritten every
    poll interval, keeping the dir young.
    """
    base = Path(root) if root is not None else Path(tempfile.gettempdir())
    now = time.time()
    reaped = 0
    try:
        candidates = list(base.glob(f"{SCRATCH_PREFIX}*"))
    except OSError:  # pragma: no cover - tempdir itself unreadable
        return 0
    for candidate in candidates:
        try:
            if not candidate.is_dir():
                continue
            newest = candidate.stat().st_mtime
            for entry in candidate.iterdir():
                with contextlib.suppress(OSError):
                    newest = max(newest, entry.stat().st_mtime)
        except OSError:
            continue  # vanished or unreadable; another run may own it
        if now - newest <= max_age_seconds:
            continue
        shutil.rmtree(candidate, ignore_errors=True)
        if not candidate.exists():
            reaped += 1
            logger.info(
                "reaped stale supervisor scratch dir %s (idle %.0fs)",
                candidate, now - newest,
            )
    if reaped and metrics.enabled:
        metrics.counter("supervisor.scratch_reaped").add(reaped)
        trace.event("supervisor.scratch_reaped", count=reaped)
    return reaped


@dataclass(frozen=True)
class SupervisorPolicy:
    """How the supervised pool guards and restarts its workers.

    Attributes
    ----------
    point_timeout:
        Hard per-point wall-clock ceiling in seconds, enforced *inside*
        the worker: on breach the worker journals a kill breadcrumb and
        ``os._exit``-s.  Unlike :attr:`ExecutionPolicy.timeout` (which
        abandons a thread and may leak it), this frees every resource
        the point held.  ``None`` disables it.
    point_rss_mb:
        Per-point resident-set-size ceiling in MiB, enforced the same
        way.  ``None`` disables it.
    quarantine_after:
        Pool crashes a single point may cause before it is retried once
        in a dedicated single-worker pool and then quarantined as a
        failed record.
    max_restarts:
        Total pool rebuilds before the run aborts with
        :class:`~repro.errors.SupervisorExhaustedError`.
    heartbeat_timeout:
        Parent-side staleness bound in seconds on a running worker's
        heartbeat file; on breach the parent SIGKILLs the worker and
        normal crash recovery takes over.  ``None`` disables it.
    poll_interval:
        Sampling period for the worker watchdog and the parent's
        future polling, in seconds.
    """

    point_timeout: Optional[float] = None
    point_rss_mb: Optional[float] = None
    quarantine_after: int = 2
    max_restarts: int = 8
    heartbeat_timeout: Optional[float] = None
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ValueError(f"point_timeout must be > 0, got {self.point_timeout}")
        if self.point_rss_mb is not None and self.point_rss_mb <= 0:
            raise ValueError(f"point_rss_mb must be > 0, got {self.point_rss_mb}")
        if self.quarantine_after < 1:
            raise ValueError(f"quarantine_after must be >= 1, got {self.quarantine_after}")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ValueError(f"heartbeat_timeout must be > 0, got {self.heartbeat_timeout}")
        if self.poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, got {self.poll_interval}")

    @property
    def guards_worker(self) -> bool:
        """Whether workers need the in-process watchdog thread."""
        return (
            self.point_timeout is not None
            or self.point_rss_mb is not None
            or self.heartbeat_timeout is not None
        )


#: Defaults applied when ``execute_grid(workers=N)`` gets no policy.
DEFAULT_SUPERVISOR = SupervisorPolicy()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def process_rss_mb() -> float:
    """This process's resident set size in MiB (best effort)."""
    try:
        with open("/proc/self/statm") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)
    except (OSError, ValueError, IndexError):
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, kB elsewhere
            peak /= 1024.0
        return peak / 1024.0


def _write_json(path: Path, payload: Dict) -> None:
    """Durably write a small breadcrumb file (fsynced before return)."""
    try:
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, default=repr))
            handle.flush()
            os.fsync(handle.fileno())
    except OSError:  # pragma: no cover - scratch dir vanished mid-teardown
        pass


def _read_json(path: Path) -> Optional[Dict]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


class _ResourceWatchdog(threading.Thread):
    """In-worker guard: heartbeats, wall-clock and RSS ceilings.

    Runs as a daemon thread beside the point.  On a ceiling breach it
    journals a ``kill-<index>.json`` breadcrumb (so the parent can
    classify the crash) and terminates the whole worker process with
    ``os._exit`` — the only reliable way to stop a runaway point, since
    CPython threads cannot be killed.
    """

    def __init__(self, key: str, index: int, sup: SupervisorPolicy, scratch: Path):
        super().__init__(daemon=True, name=f"repro-watchdog-{index}")
        self.key = key
        self.index = index
        self.sup = sup
        self.scratch = scratch
        self.started_at = time.monotonic()
        self._stopped = threading.Event()

    def stop(self) -> None:
        self._stopped.set()

    def run(self) -> None:
        heartbeat = self.scratch / f"hb-{self.index}.json"
        _write_json(heartbeat, {"pid": os.getpid(), "key": self.key})
        while not self._stopped.wait(self.sup.poll_interval):
            with contextlib.suppress(OSError):
                heartbeat.touch()
            elapsed = time.monotonic() - self.started_at
            if self.sup.point_timeout is not None and elapsed > self.sup.point_timeout:
                self._kill("wall_clock", elapsed, None)
            if self.sup.point_rss_mb is not None:
                rss = process_rss_mb()
                if rss > self.sup.point_rss_mb:
                    self._kill("rss", elapsed, rss)

    def _kill(self, reason: str, elapsed: float, rss_mb: Optional[float]) -> None:
        _write_json(
            self.scratch / f"kill-{self.index}.json",
            {
                "index": self.index,
                "key": self.key,
                "pid": os.getpid(),
                "reason": reason,
                "elapsed": round(elapsed, 3),
                "rss_mb": round(rss_mb, 1) if rss_mb is not None else None,
                "limit": (
                    self.sup.point_timeout if reason == "wall_clock"
                    else self.sup.point_rss_mb
                ),
            },
        )
        os._exit(RESOURCE_KILL_EXIT)


def _worker_initializer(trace_enabled: bool) -> None:
    """Per-worker-process setup, run once when the pool spawns it.

    Mirrors the parent's logging level (``REPRO_LOG_LEVEL``), restarts
    the tracer with a fresh epoch when the parent traces (a forked
    worker inherits the parent's buffer — those spans are the parent's,
    not this worker's), and binds any correlation ID handed down via
    ``REPRO_CORRELATION_ID`` so worker spans stitch into the request
    trace that dispatched them.
    """
    from repro.obs.logconf import configure_from_env

    configure_from_env()
    if trace_enabled:
        trace.clear()
        trace.enable()
    cid = correlation_id_from_env()
    if cid:
        trace.bind(**{CORRELATION_KEY: cid})


#: Worker span files: ``spans-<index>.json`` in the scratch dir.
_SPANS_PREFIX = "spans"

#: Schema tag of one worker span file.
WORKER_SPANS_SCHEMA = "repro.worker-spans/1"


def _export_worker_spans(scratch_dir: Path, index: int, mark: int) -> None:
    """Dump the spans this point recorded into the shared scratch dir.

    ``mark`` is the tracer buffer length when the point began — workers
    are reused across points, so only the new slice belongs to this
    one.  Timestamps stay in this worker's epoch; the file carries
    ``epoch_unix`` so the parent can re-anchor them into its own trace.
    """
    records = trace.records()[mark:]
    if not records:
        return
    _write_json(
        scratch_dir / f"{_SPANS_PREFIX}-{index}.json",
        {
            "schema": WORKER_SPANS_SCHEMA,
            "index": index,
            "pid": os.getpid(),
            "epoch_unix": trace.epoch_unix,
            "spans": [
                {
                    "name": record.name,
                    "category": record.category,
                    "start_ns": record.start_ns,
                    "duration_ns": record.duration_ns,
                    "self_ns": record.self_ns,
                    "thread_id": record.thread_id,
                    "depth": record.depth,
                    "phase": record.phase,
                    "args": record.args,
                }
                for record in records
            ],
        },
    )


def _counter_snapshot() -> Dict[str, int]:
    if not metrics.enabled:
        return {}
    return dict(metrics.snapshot().get("counters", {}))


def merge_counter_deltas(deltas: Dict[str, int]) -> None:
    """Fold a worker's counter deltas into the parent registry."""
    if not deltas or not metrics.enabled:
        return
    for name, delta in deltas.items():
        metrics.counter(name).add(delta)


def run_supervised_point(
    fn: Callable[..., object],
    params: Dict,
    policy: ExecutionPolicy,
    key: str,
    index: int,
    sup: SupervisorPolicy,
    scratch: str,
) -> Tuple[PointRecord, Dict[str, int]]:
    """Worker-side execution of one grid point under supervision.

    Writes the ``started`` breadcrumb for crash attribution, arms the
    resource watchdog, runs the point through the full retry policy of
    :func:`~repro.robust.executor.execute_point`, and returns the
    record plus the delta of every counter the point moved so the
    parent can merge the accounting.
    """
    from repro.robust.executor import execute_point

    scratch_dir = Path(scratch)
    started = scratch_dir / f"started-{index}.json"
    _write_json(
        started,
        {"index": index, "key": key, "pid": os.getpid(), "started_unix": time.time()},
    )
    watchdog: Optional[_ResourceWatchdog] = None
    if sup.guards_worker:
        watchdog = _ResourceWatchdog(key, index, sup, scratch_dir)
        watchdog.start()
    span_mark = len(trace)
    try:
        before = _counter_snapshot()
        record = execute_point(fn, params, policy=policy, key=key)
        after = _counter_snapshot()
        deltas = {
            name: after[name] - before.get(name, 0)
            for name in after
            if after[name] != before.get(name, 0)
        }
        if record.exception is not None:
            try:
                pickle.dumps(record.exception)
            except Exception:  # noqa: BLE001 - exotic exceptions stay worker-side
                record = replace(record, exception=None)
        return record, deltas
    finally:
        if trace.enabled:
            _export_worker_spans(scratch_dir, index, span_mark)
        if watchdog is not None:
            watchdog.stop()
        for leftover in (started, scratch_dir / f"hb-{index}.json"):
            with contextlib.suppress(OSError):
                leftover.unlink()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class _Supervisor:
    """One supervised grid run: submission, drain, crash recovery."""

    def __init__(
        self,
        fn: Callable[..., object],
        points: Sequence[Dict],
        policy: ExecutionPolicy,
        checkpoint: Optional[PointJournal],
        clock: Callable[[], float],
        on_progress: Optional[Callable[[ProgressSnapshot], None]],
        workers: int,
        sup: SupervisorPolicy,
        scratch: Path,
    ):
        from repro.robust.executor import _GridRun

        self.fn = fn
        self.points = list(points)
        self.policy = policy
        self.checkpoint = checkpoint
        self.workers = workers
        self.sup = sup
        self.scratch = scratch
        self.run = _GridRun(points, policy, checkpoint, clock, on_progress)
        self.pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self.futures: Dict[int, concurrent.futures.Future] = {}
        self.unsettled: Set[int] = set()
        self.serial_pending: Set[int] = set()
        self.crash_counts: Dict[int, int] = {}
        self.crash_reasons: Dict[int, str] = {}
        self.restarts = 0
        self.stop_signum: Optional[int] = None

    # -- submission ----------------------------------------------------

    def _submit(self, index: int) -> None:
        params = self.points[index]
        self.futures[index] = self.pool.submit(
            run_supervised_point,
            self.fn,
            params,
            self.policy,
            self.run.key(index, params),
            index,
            self.sup,
            str(self.scratch),
        )
        self.unsettled.add(index)

    def _make_pool(self, workers: int) -> concurrent.futures.ProcessPoolExecutor:
        """A pool whose workers mirror the parent's logging/trace setup.

        The workers fork from this process, so the simulation core is
        imported here first: a module a pooled point would otherwise
        import lazily is then paid once, not once per worker per pool.
        """
        for module in _FORK_PRELOAD:
            importlib.import_module(module)
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_initializer,
            initargs=(trace.enabled,),
        )

    def submit_all(self) -> None:
        self.pool = self._make_pool(self.workers)
        for index, params in enumerate(self.points):
            if self.checkpoint is not None and self.checkpoint.completed(params):
                continue  # replayed as `cached` at its drain turn
            self._submit(index)

    def discard(self, index: int) -> None:
        """Stop tracking a point (breaker skip or checkpoint replay)."""
        future = self.futures.pop(index, None)
        if future is not None:
            future.cancel()
        self.unsettled.discard(index)

    # -- drain ---------------------------------------------------------

    def execute(self) -> RunReport:
        self.submit_all()
        try:
            for index, params in enumerate(self.points):
                self.check_stop()
                if self.run.tripped:
                    self.discard(index)
                    self.run.settle_skipped(params)
                    continue
                if self.run.try_replay(params):
                    self.discard(index)
                    continue
                with trace.span("robust.grid_point", key=self.run.key(index, params)):
                    record, deltas = self.result(index, params)
                merge_counter_deltas(deltas)
                self.drain_worker_spans()
                self.unsettled.discard(index)
                self.run.finish_executed(record, params)
            self.shutdown(wait=True)
            self.drain_worker_spans()
        except BaseException:
            self.shutdown(wait=False)
            raise
        return self.run.report()

    def result(self, index: int, params: Dict) -> Tuple[PointRecord, Dict[str, int]]:
        """This point's outcome, surviving pool losses along the way."""
        while True:
            if index in self.serial_pending:
                return self.solo_retry(index, params)
            future = self.futures[index]
            try:
                return future.result(timeout=self.sup.poll_interval)
            except concurrent.futures.TimeoutError:
                self.check_stop()
                self.check_heartbeats()
            except concurrent.futures.BrokenExecutor as exc:
                self.handle_crash(exc)

    # -- crash recovery ------------------------------------------------

    def _read_breadcrumbs(self, prefix: str) -> Dict[int, Dict]:
        found: Dict[int, Dict] = {}
        for path in self.scratch.glob(f"{prefix}-*.json"):
            info = _read_json(path)
            if info is not None and isinstance(info.get("index"), int):
                found[info["index"]] = info
        return found

    def _clear_breadcrumbs(self) -> None:
        for path in self.scratch.glob("*.json"):
            with contextlib.suppress(OSError):
                path.unlink()

    def drain_worker_spans(self) -> int:
        """Merge worker span files into the parent trace, re-anchored.

        Worker timestamps are relative to each worker's own epoch; the
        per-file ``epoch_unix`` maps them onto the parent's timeline.
        Files are consumed (unlinked) as they are merged.  Must run
        before :meth:`_clear_breadcrumbs`, which deletes every JSON in
        the scratch dir indiscriminately.
        """
        if not trace.enabled:
            return 0
        merged = 0
        for path in sorted(self.scratch.glob(f"{_SPANS_PREFIX}-*.json")):
            doc = _read_json(path)
            with contextlib.suppress(OSError):
                path.unlink()
            if not doc or doc.get("schema") != WORKER_SPANS_SCHEMA:
                continue
            try:
                offset_ns = int(
                    (float(doc["epoch_unix"]) - trace.epoch_unix) * 1e9
                )
            except (KeyError, TypeError, ValueError):
                continue
            for span in doc.get("spans", ()):
                try:
                    record = SpanRecord(
                        name=span["name"],
                        category=span.get("category", "repro"),
                        start_ns=int(span["start_ns"]) + offset_ns,
                        duration_ns=int(span.get("duration_ns", 0)),
                        self_ns=int(span.get("self_ns", 0)),
                        thread_id=int(span.get("thread_id", 0)),
                        depth=int(span.get("depth", 0)),
                        phase=span.get("phase", "X"),
                        args={**span.get("args", {}), "worker_pid": doc.get("pid")},
                    )
                except (KeyError, TypeError, ValueError):
                    continue
                trace.add_record(record)
                merged += 1
        return merged

    def handle_crash(self, exc: BaseException) -> None:
        """Attribute a pool loss, rebuild the pool, resubmit lost work."""
        self.restarts += 1
        metrics.counter("supervisor.restarts").add()
        suspects = self._read_breadcrumbs("started")
        kills = self._read_breadcrumbs("kill")
        self.drain_worker_spans()
        self._clear_breadcrumbs()
        for index in sorted(set(suspects) | set(kills)):
            if index not in self.unsettled:
                continue  # a discarded duplicate; nothing left to blame
            kill_info = kills.get(index)
            reason = kill_info["reason"] if kill_info else "worker_death"
            self.crash_counts[index] = self.crash_counts.get(index, 0) + 1
            self.crash_reasons[index] = reason
            key = self.run.key(index, self.points[index])
            metrics.counter("supervisor.crashes").add()
            if kill_info:
                metrics.counter("supervisor.resource_kills").add()
                trace.event(
                    "supervisor.resource_kill",
                    key=key,
                    reason=reason,
                    elapsed=kill_info.get("elapsed"),
                    rss_mb=kill_info.get("rss_mb"),
                    limit=kill_info.get("limit"),
                )
            trace.event(
                "supervisor.worker_crash",
                key=key,
                reason=reason,
                crashes=self.crash_counts[index],
            )
            logger.warning(
                "worker crash #%d for point %s (%s)",
                self.crash_counts[index], key, reason,
            )
        if self.restarts > self.sup.max_restarts:
            raise SupervisorExhaustedError(
                f"worker pool lost {self.restarts} time(s), exceeding "
                f"max_restarts={self.sup.max_restarts}; giving up ({exc})"
            ) from exc
        self._rebuild_pool()

    def _rebuild_pool(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = self._make_pool(self.workers)
        resubmitted = kept = 0
        for index in sorted(self.unsettled):
            if self.crash_counts.get(index, 0) >= self.sup.quarantine_after:
                self.futures.pop(index, None)
                self.serial_pending.add(index)
                continue
            future = self.futures.get(index)
            if future is not None and future.done() and not future.cancelled():
                try:
                    future.result(timeout=0)
                    kept += 1
                    continue  # finished before the pool broke; keep the result
                except BaseException:  # noqa: BLE001 - broken future, re-run it
                    pass
            self._submit(index)
            resubmitted += 1
        trace.event(
            "supervisor.pool_rebuild",
            restart=self.restarts,
            resubmitted=resubmitted,
            kept=kept,
            quarantine_pending=len(self.serial_pending),
        )
        logger.warning(
            "rebuilt worker pool (restart %d/%d): %d point(s) resubmitted, "
            "%d completed result(s) kept, %d awaiting solo retry",
            self.restarts, self.sup.max_restarts, resubmitted, kept,
            len(self.serial_pending),
        )

    def solo_retry(self, index: int, params: Dict) -> Tuple[PointRecord, Dict[str, int]]:
        """Last chance for a crash-looping point: one dedicated worker.

        Running it alone preserves determinism (an environment-induced
        crash completes with a record identical to a serial run) while a
        point that *always* kills its process can only take the solo
        worker down — the host and the rest of the sweep survive, and
        the point is quarantined as a failed record.
        """
        crashes = self.crash_counts.get(index, 0)
        key = self.run.key(index, params)
        metrics.counter("supervisor.serial_retries").add()
        trace.event("supervisor.serial_retry", key=key, crashes=crashes)
        logger.warning(
            "point %s crashed the pool %d time(s); retrying alone before quarantine",
            key, crashes,
        )
        solo = self._make_pool(1)
        try:
            future = solo.submit(
                run_supervised_point,
                self.fn, params, self.policy, key, index, self.sup, str(self.scratch),
            )
            while True:
                try:
                    record, deltas = future.result(timeout=self.sup.poll_interval)
                except concurrent.futures.TimeoutError:
                    self.check_stop()
                    continue
                except concurrent.futures.BrokenExecutor:
                    kill_info = self._read_breadcrumbs("kill").get(index)
                    self.drain_worker_spans()
                    self._clear_breadcrumbs()
                    self.serial_pending.discard(index)
                    return self._quarantine(index, params, key, kill_info), {}
                self.serial_pending.discard(index)
                return record, deltas
        finally:
            solo.shutdown(wait=False, cancel_futures=True)

    def _quarantine(
        self,
        index: int,
        params: Dict,
        key: str,
        kill_info: Optional[Dict],
    ) -> PointRecord:
        crashes = self.crash_counts.get(index, 0) + 1
        self.crash_counts[index] = crashes
        if kill_info:
            detail = (
                f"resource guard killed it each time "
                f"({kill_info['reason']} ceiling {kill_info.get('limit')})"
            )
        else:
            reason = self.crash_reasons.get(index, "worker_death")
            detail = f"the worker died each time ({reason})"
        error = WorkerCrashError(
            f"point {key} crashed its worker {crashes} time(s), including a "
            f"dedicated solo retry; {detail}; quarantined"
        )
        metrics.counter("supervisor.quarantined").add()
        trace.event("supervisor.quarantine", key=key, crashes=crashes)
        logger.error("quarantining point %s: %s", key, error)
        message = f"{type(error).__name__}: {error}"
        return PointRecord(
            params=params,
            status=STATUS_FAILED,
            attempts=crashes,
            error=message,
            error_chain=(message,),
            exception=error,
        )

    # -- hung-worker detection -----------------------------------------

    def check_heartbeats(self) -> None:
        """SIGKILL workers whose heartbeat went stale (hung, not dead)."""
        if self.sup.heartbeat_timeout is None:
            return
        now = time.time()
        for index, info in self._read_breadcrumbs("started").items():
            if index not in self.unsettled:
                continue
            pid = info.get("pid")
            heartbeat = self.scratch / f"hb-{index}.json"
            try:
                last_beat = heartbeat.stat().st_mtime
            except OSError:
                last_beat = info.get("started_unix", now)
            if now - last_beat <= self.sup.heartbeat_timeout or not pid:
                continue
            metrics.counter("supervisor.heartbeats_missed").add()
            trace.event(
                "supervisor.heartbeat_lost",
                key=info.get("key"),
                pid=pid,
                stale_seconds=round(now - last_beat, 3),
            )
            logger.warning(
                "worker %s heartbeat stale for %.2fs (point %s); killing it",
                pid, now - last_beat, info.get("key"),
            )
            with contextlib.suppress(ProcessLookupError, PermissionError, OSError):
                os.kill(pid, signal.SIGKILL)

    # -- graceful shutdown ---------------------------------------------

    def handle_signal(self, signum: int, _frame) -> None:
        if self.stop_signum is not None:  # second signal: stop immediately
            raise KeyboardInterrupt
        self.stop_signum = signum

    def check_stop(self) -> None:
        """Honour a pending SIGINT/SIGTERM: drain, flush, raise."""
        if self.stop_signum is None:
            return
        try:
            sig_name = signal.Signals(self.stop_signum).name
        except ValueError:  # pragma: no cover - unknown signal number
            sig_name = str(self.stop_signum)
        metrics.counter("supervisor.interrupts").add()
        trace.event("supervisor.interrupted", signal=sig_name)
        logger.warning(
            "received %s: draining completed points and flushing the journal",
            sig_name,
        )
        drained = 0
        for index in sorted(self.unsettled - self.serial_pending):
            future = self.futures.get(index)
            if future is None or not future.done() or future.cancelled():
                continue
            try:
                record, deltas = future.result(timeout=0)
            except BaseException:  # noqa: BLE001 - broken futures hold no work
                continue
            merge_counter_deltas(deltas)
            self.unsettled.discard(index)
            try:
                # Journals the record (fsynced) before failure semantics,
                # which no longer matter: the run is ending either way.
                self.run.finish_executed(record, self.points[index])
            except BaseException:  # noqa: BLE001
                pass
            drained += 1
        self.drain_worker_spans()
        self.shutdown(wait=False)
        raise SweepInterrupted(
            f"sweep interrupted by {sig_name}: {drained} in-flight point(s) "
            f"drained, journal flushed; resume with --checkpoint/--resume",
            signum=self.stop_signum,
        )

    def shutdown(self, wait: bool) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=wait, cancel_futures=True)
            self.pool = None


@contextlib.contextmanager
def _signal_guard(supervisor: _Supervisor):
    """Install SIGINT/SIGTERM drain handlers for the run's duration."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, supervisor.handle_signal)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def execute_grid_supervised(
    fn: Callable[..., object],
    points: Sequence[Dict],
    policy: ExecutionPolicy,
    checkpoint: Optional[PointJournal],
    clock: Callable[[], float],
    on_progress: Optional[Callable[[ProgressSnapshot], None]],
    workers: int,
    supervisor: Optional[SupervisorPolicy] = None,
) -> RunReport:
    """Drain a supervised process-pool grid in points order.

    Call through :func:`repro.robust.executor.execute_grid` — it owns
    the picklability and clock checks that make the serial fallback
    safe.  Semantics match a serial run exactly (records in points
    order, failures counted in points order, journal written only from
    this process); see the module docstring for the failure modes
    handled on top of that.
    """
    sup = supervisor or DEFAULT_SUPERVISOR
    reap_stale_scratch()
    scratch = Path(tempfile.mkdtemp(prefix=SCRATCH_PREFIX))
    run = _Supervisor(
        fn, points, policy, checkpoint, clock, on_progress, workers, sup, scratch
    )
    try:
        with _signal_guard(run):
            return run.execute()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
