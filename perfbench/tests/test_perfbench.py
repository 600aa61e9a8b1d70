"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench/tests -q

Each test runs the harness end to end from the repository root, so the
whole file takes a few minutes.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

#: Seconds slept inside the wrapper around every ``DramSimulator.run``.
DELAY_S = 0.5
BUSY = ("experiments", "compiler", "mapping", "dataflow", "memory", "engine",
        "golden", "energy", "tracefiles", "dram")


def bench(workload, trace, *extra, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(workload, trace, *extra, seconds=1):
    proc = bench(workload, trace, *extra, seconds=seconds)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0, proc.stderr
    return {name: metric["value"] for name, metric in out["metrics"].items()}


def bound(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)


def test_slowed_layer_moves_its_layer_metric_only():
    base = result("dram_replay", 1)
    slow = result("dram_replay", 1, "--slow", f"dram={DELAY_S}")
    injected = DELAY_S * len(run.DRAM_LAYERS) * len(run.DRAM_CHANNELS)
    moved = {label: slow[f"{label}.busy_s"] - base[f"{label}.busy_s"] for label in BUSY}
    assert moved["dram"] > 0.8 * injected
    others = [abs(delta) for label, delta in moved.items() if label != "dram"]
    assert max(others) < 0.25 * injected, moved


def test_slowed_layer_moves_the_predicted_end_to_end_metric():
    base = result("dram_replay", 0)
    slow = result("dram_replay", 0, "--slow", f"dram={DELAY_S}")
    assert slow["work_per_s"] < (1 - bound("work_per_s")) * base["work_per_s"]


def test_slowed_layer_leaves_other_workloads_within_bounds():
    base = result("paper_figures", 0, seconds=3)
    slow = result("paper_figures", 0, "--slow", f"dram={DELAY_S}", seconds=3)
    assert slow["work_per_s"] > (1 - bound("work_per_s")) * base["work_per_s"]
    assert slow["setup_s"] < (1 + bound("setup_s")) * base["setup_s"]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("paper_figures", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pareto_keys_match_brute_force():
    rng = random.Random(3)
    rows = [{"layer": str(i), "channels": 1,
             "cycles": rng.randrange(20), "latency": rng.randrange(20)}
            for i in range(300)]
    front = {
        run._row_key(p) for p in rows
        if not any(q["cycles"] <= p["cycles"] and q["latency"] <= p["latency"]
                   and (q["cycles"], q["latency"]) != (p["cycles"], p["latency"])
                   for q in rows)
    }
    assert run._pareto_keys(rows, "cycles", "latency") == front
