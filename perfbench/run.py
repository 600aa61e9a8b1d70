"""Benchmark harness for the ``repro`` reproduction of SCALE-Sim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  ``repro`` is a black box here:
every job runs in a fresh ``python3 perfbench/program.py`` process
(``PYTHONPATH=src``, no inherited ``REPRO_*`` variables, ``TMPDIR`` and
every ledger and result store inside a per-run directory under
``.perfbench_tmp/`` that is removed at the end).  This process times
the jobs from outside, checks every output, prints one line per metric
and, last, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  Names, units and bounds live in BENCHMARK.json at
the checkout root; README.md in this directory explains the workloads.

``--slow LAYER=SECONDS`` sleeps inside the benchmark's own wrapper
around one layer's calls (see layerclock.py).  It exists for the
attribution self-test in tests/ and is never used for measurement.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from program import host_probe

BENCH_DIR = Path(__file__).resolve().parent
PROGRAM = BENCH_DIR / "program.py"
DRAM_EXPECTED = BENCH_DIR / "inputs" / "dram_expected.json"

#: Seconds a whole run may take; a program process still running then
#: is killed and counted as failed.
RUN_LIMIT_S = 170
#: Set-up-only processes started per untraced run, besides the jobs.
SETUP_PROBES = 8
#: What ``host_probe`` takes on the reference host the end-to-end
#: times are scaled to (README.md, "Host speed").
HOST_PROBE_REFERENCE_S = 0.020

DRAM_LAYERS = ("Conv1", "IB2b_1", "IB2c_2", "FC1000")
DRAM_CHANNELS = (1, 4)
#: The DRAM sweep's layers, costliest first so that the pool's two
#: workers finish close together whatever the channel order.
SWEEP_LAYERS = ("IB2c_2", "FC1000", "IB2b_1")
SWEEP_CHANNELS = (1, 4)
#: The channel count the re-sweep adds to the fresh sweep's grid.
RESWEEP_NEW_CHANNELS = 2
SWEEP_WORKERS = 2


class BenchError(Exception):
    """The benchmark cannot produce a result."""


class Bench:
    """State of one run: inputs, spawned jobs, checks and samples."""

    def __init__(self, root: Path, tmp: Path, seed: int, seconds: float,
                 slow: Dict[str, float]):
        self.root = root
        self.tmp = tmp
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.slow = slow
        self.attempted = 0
        self.failed = 0
        self.setup_s: List[float] = []
        self.rss_mb: List[float] = []
        self.host_probe_s: List[float] = []
        self._serial = 0
        self._started = time.monotonic()

    def path(self, stem: str) -> Path:
        self._serial += 1
        return self.tmp / f"{stem}-{self._serial}"

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"output check failed: {what}", file=sys.stderr)

    def spawn(self, kind: str, trace: bool = False, **job) -> Optional[dict]:
        """Run one job in a fresh program process; None if it failed."""
        job.update(kind=kind, root=str(self.root), trace=trace, slow=self.slow)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(self.tmp)
        self.host_probe_s.append(host_probe())
        spawn_at = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(PROGRAM), json.dumps(job)],
            cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self._started + RUN_LIMIT_S - spawn_at))
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            out, err = proc.communicate()
            print(f"{kind} job killed at the {RUN_LIMIT_S}s run limit", file=sys.stderr)
            return None
        finally:
            _kill_group(proc.pid)  # any pool worker the job left behind
            self.host_probe_s.append(host_probe())
        if proc.returncode != 0:
            print(f"{kind} job exited {proc.returncode}:\n{err[-3000:]}", file=sys.stderr)
            return None
        record = json.loads(out.strip().splitlines()[-1])
        record["spawn_at"] = spawn_at
        self.setup_s.append(record["ready_at"] - spawn_at)
        self.rss_mb.append(record["rss_mb"])
        return record

    def warm_up(self, kind: str = "setup") -> dict:
        """An untimed first process: fills the bytecode cache."""
        record = self.spawn(kind)
        if record is None:
            raise BenchError("the program does not start")
        del self.setup_s[-1]
        return record

    def probe_setup(self) -> None:
        for _ in range(SETUP_PROBES):
            if self.spawn("setup") is None:
                raise BenchError("set-up probe failed")

    def deadline(self) -> float:
        return time.monotonic() + self.seconds


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# ----------------------------------------------------------------------
# paper_figures
# ----------------------------------------------------------------------
def paper_figures(bench: Bench, trace: bool) -> Tuple[dict, dict]:
    ids = bench.warm_up("experiments")["result"]["ids"]
    baselines = {}
    for name in ids:
        path = bench.root / "baselines" / f"{name}.json"
        baselines[name] = json.loads(path.read_text())["rows"] if path.is_file() else None

    def figure(name: str, traced: bool = False):
        out = bench.path("rows")
        record = bench.spawn("figure", trace=traced, id=name, out=str(out))
        if record is None:
            bench.check(False, f"reproduce {name} crashed")
            return None
        rows = json.loads(out.read_text())
        out.unlink()
        bench.check(rows == baselines[name], f"reproduce {name} differs from baselines/{name}.json")
        record["seconds"] = record["result"]["done_at"] - record["spawn_at"]
        return record

    if trace:
        plain, traced = [], []
        for name in _shuffled(bench, ids):
            plain.append(figure(name))
            traced.append(figure(name, traced=True))
        done = [r for r in traced if r is not None]
        overhead = _ratio(sum(r["seconds"] for r in done),
                          sum(r["seconds"] for r in plain if r is not None)) - 1.0
        return layer_metrics(done, overhead=overhead), {}

    bench.probe_setup()
    samples: Dict[str, List[float]] = defaultdict(list)
    deadline = bench.deadline()
    while True:
        for name in _shuffled(bench, ids):
            if time.monotonic() >= deadline and all(i in samples for i in ids):
                break
            record = figure(name)
            samples[name].append(record["seconds"] if record else float("nan"))
        else:
            continue
        break
    timed = [statistics.median(v) for v in samples.values() if not any(map(math.isnan, v))]
    figures_s = sum(timed)
    return {"work_per_s": len(timed) / figures_s}, {
        "figures_s": (figures_s, "s", f"sum over {len(timed)} ids of the median "
                      f"fresh-process time, {sum(map(len, samples.values()))} processes"),
    }


# ----------------------------------------------------------------------
# dram_replay
# ----------------------------------------------------------------------
def dram_replay(bench: Bench, trace: bool) -> Tuple[dict, dict]:
    bench.warm_up()
    expected = json.loads(DRAM_EXPECTED.read_text())["stats"]
    ops = [[layer, channels] for layer in DRAM_LAYERS for channels in DRAM_CHANNELS]

    def replay(traced: bool = False, deadline: Optional[float] = None):
        order = _shuffled(bench, ops)
        record = bench.spawn("dram", trace=traced, ops=order, deadline=deadline)
        if record is None:
            for layer, channels in order:
                bench.check(False, f"DRAM replay of {layer} at {channels} channel(s) crashed")
            return None
        bench.host_probe_s.extend(record["result"]["host_probe_s"])
        for op in record["result"]["ops"]:
            key = f"{op['layer']}/ch{op['channels']}"
            bench.check(op["stats"] == expected[key], f"DramStats of {key} differ from {DRAM_EXPECTED.name}")
        return record

    if trace:
        plain, traced = replay(), replay(traced=True)
        if plain is None or traced is None:
            raise BenchError("DRAM replay crashed")
        spent = [sum(op["seconds"] for op in r["result"]["ops"]) for r in (traced, plain)]
        extra = {"tracefiles.requests": sum(op["requests"] for op in traced["result"]["ops"])}
        for channels in DRAM_CHANNELS:
            key = f"dram.ch{channels}"
            extra[f"dram.us_per_request.ch{channels}"] = 1e6 * _ratio(
                traced["split_busy"].get(key, 0.0), traced["split_count"].get(key, 0))
        return layer_metrics([traced], overhead=spent[0] / spent[1] - 1.0, extra=extra), {}

    bench.probe_setup()
    samples: Dict[Tuple[str, int], List[float]] = defaultdict(list)
    measured: Dict[Tuple[str, int], List[float]] = defaultdict(list)
    requests: Dict[Tuple[str, int], int] = {}
    deadline = bench.deadline()
    first = True
    while first or time.monotonic() < deadline:
        record = replay(deadline=None if first else deadline)
        first = False
        if record is None:
            continue
        for op in record["result"]["ops"]:
            key = (op["layer"], op["channels"])
            # Each replay is scaled by the probes on either side of it.
            samples[key].append(op["seconds"] * HOST_PROBE_REFERENCE_S / op["host_probe_s"])
            measured[key].append(op["seconds"])
            requests[key] = op["requests"]
    if not samples:
        raise BenchError("no DRAM replay finished")
    busy = sum(statistics.median(v) for v in samples.values())
    total = sum(requests.values())
    passes = min(len(v) for v in samples.values())
    as_measured = total / sum(statistics.median(v) for v in measured.values())
    return {"work_per_s": total / busy}, {
        "dram_requests_per_s": (total / busy, "1/s", f"at reference host speed; {total} "
                                f"requests over {len(samples)} layer/channel replays, median of "
                                f">= {passes} sample(s) each; {as_measured:.4f} as measured"),
    }


# ----------------------------------------------------------------------
# dram_sweep
# ----------------------------------------------------------------------
def _row_key(row: dict) -> Tuple:
    return (row["layer"], row["channels"])


def _pareto_keys(rows: List[dict], first: str, second: str) -> set:
    """Keys of the rows no other row beats on (first, second), both
    minimized; ties on both objectives all survive."""
    ordered = sorted(rows, key=lambda row: (row[first], row[second]))
    front, best_before, index = set(), float("inf"), 0
    while index < len(ordered):
        value = ordered[index][first]
        same = [row for row in ordered[index:] if row[first] == value]
        lowest = same[0][second]
        if lowest < best_before:
            front.update(_row_key(row) for row in same if row[second] == lowest)
        best_before = min(best_before, lowest)
        index += len(same)
    return front


def dram_sweep(bench: Bench, trace: bool) -> Tuple[dict, dict]:
    bench.warm_up()
    expected = json.loads(DRAM_EXPECTED.read_text())
    channels = _shuffled(bench, SWEEP_CHANNELS)
    base = {"layer": list(SWEEP_LAYERS), "channels": channels}
    channels = list(channels)
    channels.insert(bench.rng.randrange(len(channels) + 1), RESWEEP_NEW_CHANNELS)
    regrid = {"layer": list(SWEEP_LAYERS), "channels": channels}
    phases = {name: [(layer, ch) for layer in grid["layer"] for ch in grid["channels"]]
              for name, grid in (("sweep", base), ("resweep", regrid))}
    reference = {}
    for layer, ch in phases["resweep"]:
        reference[(layer, ch)] = dict(expected["stats"][f"{layer}/ch{ch}"], layer=layer,
                                      channels=ch, cycles=expected["cycles"][layer])
        reference[(layer, ch)]["requests"] = reference[(layer, ch)]["num_requests"]
    front = _pareto_keys(list(reference.values()), "last_finish_cycle", "total_latency")
    slowest: Dict[str, float] = {}
    for row in reference.values():
        slowest[row["layer"]] = max(slowest.get(row["layer"], 0.0), float(row["total_latency"]))
    # Requests the job replays: every fresh point, and the re-sweep's new ones.
    replayed = sum(reference[key]["requests"] for key in set(phases["sweep"]) | set(phases["resweep"]))

    def job(traced: bool = False, workers: int = SWEEP_WORKERS):
        # Job directories go with the run directory at the end; the sync
        # starts every job with no earlier writes pending.
        os.sync()
        out = bench.path("rows")
        record = bench.spawn("dram_sweep", trace=traced, dir=str(bench.path("job")), grid=base,
                             regrid=regrid, workers=workers, out=str(out))
        outputs = json.loads(out.read_text()) if record is not None else {}
        for phase, points in phases.items():
            rows = outputs.get(phase, [])
            got = {_row_key(row): row for row in rows}
            bad = [key for key in points if got.get(key) != reference[key]]
            bench.attempted += len(points)
            bench.failed += len(bad)
            if bad or len(rows) != len(points):
                print(f"output check failed: {phase}: {len(bad)} of {len(points)} point(s) "
                      f"differ from {DRAM_EXPECTED.name}, {len(rows)} row(s)", file=sys.stderr)
        if record is None:
            return None
        query = record["result"]["query"]
        bench.check(
            query["requests"] == sum(row["requests"] for row in reference.values())
            and {tuple(key) for key in query["pareto"]} == front
            and query["max_latency"] == slowest,
            f"ledger queries differ from {DRAM_EXPECTED.name}",
        )
        return record

    def seconds(record: dict) -> float:
        return record["result"]["seconds"] + record["result"]["resweep_seconds"]

    if trace:
        plain, traced, serial = job(), job(traced=True), job(traced=True, workers=1)
        if plain is None or traced is None or serial is None:
            raise BenchError("a traced sweep job crashed")
        report = plain["result"]["report"]
        counters = traced["counters"]
        extra = {
            "robust.point_busy_s": report["point_busy_s"],
            "robust.dispatch_wait_s": SWEEP_WORKERS * report["wall_s"] - report["point_busy_s"],
            "robust.retries": report["retries"],
            "supervisor.restarts": counters.get("supervisor.restarts", 0),
            "supervisor.serial_retries": counters.get("supervisor.serial_retries", 0),
            "ledger.reused_ratio": _ratio(serial["result"]["reused"], serial["result"]["diffed"]),
            "tracefiles.requests": replayed,
        }
        for ch in DRAM_CHANNELS:
            key = f"dram.ch{ch}"
            extra[f"dram.us_per_request.ch{ch}"] = 1e6 * _ratio(
                serial["split_busy"].get(key, 0.0), serial["split_count"].get(key, 0))
        overhead = seconds(traced) / seconds(plain) - 1.0
        return layer_metrics([serial], overhead=overhead, extra=extra), {}

    bench.probe_setup()
    samples: Dict[str, List[float]] = defaultdict(list)
    deadline = bench.deadline()
    while not samples or time.monotonic() < deadline:
        record = job()
        if record is None:
            if not samples and time.monotonic() >= deadline:
                raise BenchError("no sweep job finished")
            continue
        # Each job is scaled by the probes around it in its own process:
        # with both workers busy the host's speed changed within a run
        # more than the run's median probe could follow (README.md).
        speed = statistics.mean(record["result"]["host_probe_s"]) / HOST_PROBE_REFERENCE_S
        samples["measured"].append(replayed / seconds(record))
        samples["all"].append(samples["measured"][-1] * speed)
        samples["sweep"].append(record["result"]["seconds"])
        samples["resweep"].append(record["result"]["resweep_seconds"])
    return {"work_per_s": statistics.median(samples["all"])}, {
        "work_per_s": (statistics.median(samples["all"]), "1/s",
                       f"requests replayed per second at reference host speed, each job "
                       f"scaled by its own probes; {statistics.median(samples['measured']):.4f} "
                       f"as measured"),
        "sweep_s": (statistics.median(samples["sweep"]), "s",
                    f"fresh sweep of {len(phases['sweep'])} points, workers={SWEEP_WORKERS}, "
                    f"median of {len(samples['all'])} fresh-process jobs"),
        "resweep_s": (statistics.median(samples["resweep"]), "s",
                      f"incremental re-sweep of {len(phases['resweep'])} points, "
                      f"{len(phases['sweep'])} reused"),
    }


WORKLOADS = {
    "paper_figures": paper_figures,
    "dram_replay": dram_replay,
    "dram_sweep": dram_sweep,
}
#: Workloads whose ``work_per_s`` is scaled here by the run's median
#: probe; the DRAM workloads scale each replay or job themselves.
SCALED_PER_RUN = ("paper_figures",)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(records: List[dict], overhead: float, extra: Optional[dict] = None) -> dict:
    """Per-layer metrics of one job, from the traced program processes
    that ran it (each job's layer times are summed over them)."""
    busy: Dict[str, float] = defaultdict(float)
    counters: Dict[str, float] = defaultdict(float)
    for record in records:
        for label, seconds in record["layers"].items():
            busy[label] += seconds
        for name, value in record["counters"].items():
            counters[name] += value
    hits = counters.get("perf.cache.hits", 0)
    metrics = {
        "import.self_s": statistics.median(r["setup"]["import_s"] for r in records),
        "topology.parse_s": statistics.median(r["setup"]["topology_s"] for r in records),
        "config.parse_s": statistics.median(r["setup"]["config_s"] for r in records),
        "compiler.points": counters.get("perf.compiler.points", 0),
        "dataflow.engines_built": counters.get("dataflow.engines_built", 0),
        "dataflow.folds_planned": counters.get("dataflow.folds_planned", 0),
        "engine.layers": counters.get("sim.layers", 0),
        "engine.cache_hit_ratio": _ratio(hits, hits + counters.get("perf.cache.misses", 0)),
        "dram.row_hit_ratio": _ratio(counters.get("dram.row_hits", 0),
                                     counters.get("dram.requests", 0)),
        "ledger.write_s": busy.get("ledger.write", 0.0),
        "ledger.open_s": busy.get("ledger.open", 0.0),
        "ledger.diff_s": busy.get("ledger.diff", 0.0),
        "ledger.query_s": busy.get("ledger.query", 0.0),
        "store.record_s": busy.get("store.record", 0.0),
        "store.probe_s": busy.get("store.probe", 0.0),
        "trace.overhead_ratio": overhead,
    }
    for label in ("experiments", "compiler", "mapping", "dataflow", "memory",
                  "engine", "golden", "energy", "tracefiles", "dram"):
        metrics[f"{label}.busy_s"] = busy.get(label, 0.0)
    metrics.update(extra or {})
    return metrics


# ----------------------------------------------------------------------
# helpers and entry point
# ----------------------------------------------------------------------
def _shuffled(bench: Bench, items) -> list:
    items = list(items)
    bench.rng.shuffle(items)
    return items


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _parse_slow(specs: List[str]) -> Dict[str, float]:
    slow = {}
    for spec in specs:
        label, _, seconds = spec.partition("=")
        slow[label] = float(seconds)
    return slow


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slow", action="append", default=[], metavar="LAYER=SECONDS")
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("BENCHMARK.json", "src/repro/cli.py", "topologies/resnet50.csv",
                           "topologies/language-models.csv", "baselines")
               if not (root / p).exists()]
    if missing:
        print(f"error: not a repro checkout (missing {', '.join(missing)}); "
              "run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    bench = Bench(root, tmp, args.seed, args.seconds, _parse_slow(args.slow))
    try:
        values, notes = WORKLOADS[args.workload](bench, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    if not args.trace:
        # Scale host times to the reference host speed: the shared host
        # this benchmark was tuned on changed speed by up to 2x within an
        # hour, and the probe tracked the CPU-bound times (README.md).
        probe = statistics.median(bench.host_probe_s)
        speed = probe / HOST_PROBE_REFERENCE_S
        work_speed = speed if args.workload in SCALED_PER_RUN else 1.0
        raw = {"work_per_s": values["work_per_s"], "setup_s": statistics.median(bench.setup_s)}
        values = {
            "work_per_s": raw["work_per_s"] * work_speed,
            "setup_s": raw["setup_s"] / speed,
            "peak_rss_mb": max(bench.rss_mb),
        }
        if args.workload in SCALED_PER_RUN:
            notes["work_per_s"] = (values["work_per_s"], "1/s", f"at reference host speed; "
                                   f"{raw['work_per_s']:.4f} as measured")
        notes.update(
            host_probe_ms=(1e3 * probe, "ms", f"fixed Python loop, median of "
                           f"{len(bench.host_probe_s)}; {1e3 * HOST_PROBE_REFERENCE_S:g} "
                           f"on the reference host"),
            setup_s=(values["setup_s"], "s", f"at reference host speed; {raw['setup_s']:.4f} "
                     f"as measured, median of {len(bench.setup_s)} fresh processes"),
            peak_rss_mb=(values["peak_rss_mb"], "MB", f"max of {len(bench.rss_mb)} processes"),
        )
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, host time")
    for name, (value, unit, how) in notes.items():
        print(f"{name:24s} {value:14.4f} {unit:6s} ({how})")
    metrics = {}
    for metric in wanted:
        # A layer the workload bypasses reads 0.
        value = float(values.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        if args.trace:
            print(f"{metric['name']:28s} {value:14.6f} {metric['unit']}")
    correct = bench.failed == 0 and bench.attempted > 0
    print(f"output check: {bench.attempted} attempted, {bench.failed} failed -> "
          f"{'correct' if correct else 'INCORRECT'}")
    print(json.dumps({"correct": correct, "attempted": max(1, bench.attempted),
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
