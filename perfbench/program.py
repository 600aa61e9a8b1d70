"""Program side of the benchmark: one fresh ``repro`` process per job.

``run.py`` starts this script with ``PYTHONPATH=<checkout>/src`` and one
JSON job description as its only argument.  The script sets up as every
``repro`` invocation does (import ``repro.cli``, parse the topology and
config inputs), runs the job, writes bulky outputs (result rows) to the
file the job names, and prints one JSON line of timings and results.

Stamps are ``time.monotonic()``: on Linux one clock shared by every
process on the host, so ``run.py`` subtracts its own spawn stamp from
the ``ready_at`` stamp printed here to get the set-up time.
"""

import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
TOPOLOGIES = ("resnet50.csv", "language-models.csv")
CONFIG = BENCH_DIR / "inputs" / "paper_16x16_os.cfg"

#: Layers by name and the parsed config, filled by set-up before any
#: pool worker forks.
LAYERS = {}
SETUP = {}


def host_probe(repeats=1):
    """Seconds one pass of a fixed pure-Python loop takes right now,
    averaged over ``repeats`` passes.  It runs no ``repro`` code, so no
    change to the program can move it."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000 * repeats):
        total += i * i % 7
    return (time.perf_counter() - start) / repeats


def replay(simulator, config, layer, channels):
    """DRAM replay of one layer: its traffic, the request stream and
    ``DramSimulator.run``; returns (requests, DramStats fields)."""
    from repro.dram import DramSimulator, DramTiming
    from repro.engine.tracefiles import dram_request_stream
    from repro.memory.bandwidth import compute_dram_traffic
    from repro.memory.buffers import BufferSet

    traffic = compute_dram_traffic(
        simulator.engine(layer), BufferSet.from_config(config), config.word_bytes
    )
    requests = list(dram_request_stream(traffic, simulator.address_layout(layer)))
    stats = DramSimulator(DramTiming(num_channels=channels)).run(requests)
    return len(requests), {field: getattr(stats, field) for field in stats.__dataclass_fields__}


def dram_point(layer, channels):
    """One DRAM-sweep point: the layer's cycle simulation (through the
    result store), then the DRAM replay of its traffic.  Module-level so
    pool workers unpickle it."""
    from repro.engine.simulator import Simulator

    config = SETUP["config"]
    simulator = Simulator(config)
    cycles = simulator.run_layer(LAYERS[layer]).total_cycles
    requests, stats = replay(simulator, config, LAYERS[layer], channels)
    return dict(stats, cycles=cycles, requests=requests)


def set_up(root):
    """Parse the workload inputs; returns (config, per-phase seconds)."""
    from repro.config.parser import parse_config_text
    from repro.topology import load_topology

    start = time.perf_counter()
    for name in TOPOLOGIES:
        for layer in load_topology(root / "topologies" / name):
            LAYERS[layer.name] = layer
    parsed = time.perf_counter()
    config = SETUP["config"] = parse_config_text(CONFIG.read_text())
    return config, {"topology_s": parsed - start, "config_s": time.perf_counter() - parsed}


def job_setup(job, config):
    return {}


def job_figure(job, config):
    from repro.experiments import run_experiment

    rows = run_experiment(job["id"])
    done_at = time.monotonic()
    Path(job["out"]).write_text(json.dumps(rows))
    return {"done_at": done_at}


def job_experiments(job, config):
    from repro.experiments import available_experiments

    return {"ids": available_experiments()}


def job_dram(job, config):
    """Replay (layer, channels) ops until the deadline, at least one,
    with a 0.1 s host probe before the first op and after every op."""
    from repro.engine.simulator import Simulator

    simulator = Simulator(config)
    deadline = job.get("deadline")
    done, probes = [], [host_probe(repeats=5)]
    for name, channels in job["ops"]:
        if done and deadline is not None and time.monotonic() >= deadline:
            break
        start = time.perf_counter()
        requests, stats = replay(simulator, config, LAYERS[name], channels)
        seconds = time.perf_counter() - start
        probes.append(host_probe(repeats=5))
        done.append({
            "layer": name,
            "channels": channels,
            "requests": requests,
            "seconds": seconds,
            "host_probe_s": (probes[-2] + probes[-1]) / 2,
            "stats": stats,
        })
    return {"ops": done, "host_probe_s": probes}


def _report_summary(report, wall_s):
    return {
        "point_busy_s": sum(record.duration for record in report),
        "retries": sum(max(0, record.attempts - 1) for record in report),
        "wall_s": wall_s,
    }


def job_dram_sweep(job, config):
    """A fresh DRAM sweep into a new ledger and result store, then an
    incremental re-sweep of ``regrid`` against the same ledger and store,
    reopened, followed by the ledger's column queries.  Host probes of
    0.2 s run just before and just after the timed phases."""
    from repro.store import runtime as store_runtime
    from repro.store.ledger import SweepLedger
    from repro.sweep import grid_points, run_sweep_report

    root = Path(job["dir"])
    probe_before = host_probe(repeats=10)
    start = time.perf_counter()
    store_runtime.configure(root / "store")
    rows, report = run_sweep_report(
        dram_point, workers=job["workers"], ledger=root / "ledger", **job["grid"]
    )
    seconds = time.perf_counter() - start
    result = {"seconds": seconds, "report": _report_summary(report, seconds)}
    grid = job["regrid"]
    start = time.perf_counter()
    store_runtime.configure(root / "store")
    ledger = SweepLedger(root / "ledger")
    try:
        diff = ledger.diff_grid(grid_points(**grid))
        resweep, _ = run_sweep_report(
            dram_point, workers=job["workers"], ledger=ledger, incremental=True, **grid
        )
        column = ledger.numeric_column("requests")
        front = ledger.pareto(minimize=("last_finish_cycle", "total_latency"))
        slowest = ledger.group_by("layer", "total_latency", agg="max")
    finally:
        ledger.close()
    result.update(
        resweep_seconds=time.perf_counter() - start,
        host_probe_s=[probe_before, host_probe(repeats=10)],
        reused=len(diff.reused),
        diffed=diff.total,
        query={
            "requests": float(column.sum()),
            "pareto": [[row["layer"], row["channels"]] for row in front],
            "max_latency": slowest,
        },
    )
    Path(job["out"]).write_text(json.dumps({"sweep": rows, "resweep": resweep}))
    return result


JOBS = {
    "setup": job_setup,
    "experiments": job_experiments,
    "figure": job_figure,
    "dram": job_dram,
    "dram_sweep": job_dram_sweep,
}


def main(argv):
    job = json.loads(argv[1])
    root = Path(job["root"])
    import_start = time.perf_counter()
    import repro.cli  # noqa: F401  (the import every `repro` command pays)

    import_s = time.perf_counter() - import_start
    config, phases = set_up(root)
    ready_at = time.monotonic()

    from repro.obs import metrics

    trace, slow = job.get("trace"), job.get("slow") or {}
    if trace or slow:
        import repro.experiments  # noqa: F401  (bind every alias before wrapping)

        from layerclock import LayerClock

        clock = LayerClock(slow)
        clock.install(None if trace else slow)
    if trace:
        metrics.enable()

    result = JOBS[job["kind"]](job, config)

    out = {
        "ready_at": ready_at,
        "setup": dict(phases, import_s=import_s),
        "rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024.0,
        "result": result,
    }
    if trace:
        out["layers"] = dict(clock.busy)
        out["split_busy"] = dict(clock.split_busy)
        out["split_count"] = dict(clock.split_count)
        out["counters"] = metrics.snapshot()["counters"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
