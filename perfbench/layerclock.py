"""Per-layer self time, measured from outside the ``repro`` package.

The traced run wraps each layer's public functions (the table below)
in this process and keeps one stack of open calls per thread, so a
layer's *self* time is its calls' wall time minus the time spent in
nested calls of other wrapped layers.  Nothing inside ``src/`` changes:
the wrappers are installed by rebinding every module-level alias of a
function, or the method on its class, after ``repro`` is imported.

A call made inside a pool worker that was forked after installation
runs the wrapper too, but its accumulators stay in that worker; the
traced run therefore takes layer times from a serial in-process pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Optional, Tuple

#: (layer, module, function or Class.method) timed by the traced run.
TARGETS = (
    ("experiments", "repro.experiments.registry", "run_experiment"),
    ("compiler", "repro.perf.compiler", "compile_search_space"),
    ("mapping", "repro.mapping.dims", "map_layer"),
    ("mapping", "repro.mapping.folds", "plan_folds"),
    ("dataflow", "repro.dataflow.factory", "engine_for"),
    ("dataflow", "repro.dataflow.factory", "engine_for_gemm"),
    ("dataflow", "repro.dataflow.base", "DataflowEngine.total_cycles"),
    ("dataflow", "repro.dataflow.base", "DataflowEngine.layer_counts"),
    ("memory", "repro.memory.bandwidth", "compute_dram_traffic"),
    ("engine", "repro.engine.simulator", "Simulator.run_layer"),
    ("engine", "repro.engine.scaleout", "ScaleOutSimulator.run_layer"),
    ("golden", "repro.golden.gemm", "golden_gemm"),
    ("golden", "repro.golden.validate", "validate_configuration"),
    ("energy", "repro.energy.model", "energy_of_result"),
    ("energy", "repro.energy.model", "energy_of_run"),
    ("tracefiles", "repro.engine.tracefiles", "dram_request_stream"),
    ("dram", "repro.dram.simulator", "DramSimulator.run"),
    ("ledger.open", "repro.store.ledger", "SweepLedger.__init__"),
    ("ledger.write", "repro.store.ledger", "SweepLedger.record"),
    ("ledger.write", "repro.store.ledger", "SweepLedger.flush"),
    ("ledger.diff", "repro.store.ledger", "SweepLedger.diff_grid"),
    ("ledger.query", "repro.store.ledger", "SweepLedger.numeric_column"),
    ("ledger.query", "repro.store.ledger", "SweepLedger.values_column"),
    ("ledger.query", "repro.store.ledger", "SweepLedger.pareto"),
    ("ledger.query", "repro.store.ledger", "SweepLedger.group_by"),
    ("store.probe", "repro.store.runtime", "probe"),
    ("store.record", "repro.store.runtime", "record"),
)


def _dram_channels(args, result) -> Tuple[str, int]:
    """DRAM replay split by channel count, so the per-channel queue cost
    can be told apart from the per-request cost."""
    return f"dram.ch{args[0].timing.num_channels}", result.num_requests


#: Methods whose calls are also split by a key taken from the call.
_SPLITS: Dict[str, Callable] = {"DramSimulator.run": _dram_channels}


class LayerClock:
    """Accumulates self time per layer label.

    ``delays`` maps a layer label to seconds slept inside that layer's
    wrapper on every call; the attribution self-test uses it to slow one
    layer on purpose.
    """

    def __init__(self, delays: Optional[Dict[str, float]] = None):
        self.busy: Dict[str, float] = defaultdict(float)
        #: Self time and work count per split key (see ``_SPLITS``).
        self.split_busy: Dict[str, float] = defaultdict(float)
        self.split_count: Dict[str, int] = defaultdict(int)
        self.delays = dict(delays or {})
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, label: str, fn: Callable, split: Optional[Callable] = None) -> Callable:
        clock = self
        delay = self.delays.get(label, 0.0)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = clock._stack()
            stack.append(0.0)
            start = time.perf_counter()
            result = None
            try:
                if delay:
                    time.sleep(delay)
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                own = elapsed - nested
                with clock._lock:
                    clock.busy[label] += own
                    if split is not None and result is not None:
                        key, count = split(args, result)
                        clock.split_busy[key] += own
                        clock.split_count[key] += count

        return timed

    def install(self, labels: Optional[Iterable[str]] = None) -> None:
        """Wrap every target (or only those of ``labels``)."""
        wanted = None if labels is None else set(labels)
        for label, module_name, path in TARGETS:
            if wanted is not None and label not in wanted:
                continue
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            split = _SPLITS.get(path)
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, attr, self.wrap(label, owner.__dict__[attr], split))
                continue
            original = getattr(module, attr)
            timed = self.wrap(label, original, split)
            for name, loaded in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")) or loaded is None:
                    continue
                for alias, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, alias, timed)
