"""Performance layer: memoization and the vectorized sweep compiler.

``repro.perf`` holds the machinery that makes design-space sweeps fast
without changing what they compute:

* :data:`cache` — a process-wide bounded LRU memoizing simulated
  ``(LayerResult, DramTraffic)`` pairs across layers, tiles and grid
  points (ResNet-50 repeats conv shapes; scale-out grids collapse to
  <= 4 distinct GEMMs per layer).
* :mod:`~repro.perf.compiler` — the sweep compiler: an entire
  (grid x array shape) design space evaluated as numpy arrays in a few
  vectorized passes, with frontier selection so the cycle-accurate
  engine only runs on analytically interesting points.

The multiprocess grid backend behind ``execute_grid(workers=N)`` is
:func:`repro.robust.supervisor.execute_grid_supervised`, which
preserves serial semantics exactly (row order, retries, circuit
breaker, checkpointing from the parent).

Every speed-up in this package is exactness-preserving and covered by
equivalence tests against the serial/uncached reference paths.
"""

from repro._lazy import lazy_exports

# Bound eagerly: the instance ``cache`` shares its name with the
# ``repro.perf.cache`` submodule, which any import of that module would
# otherwise bind here in its place.  The module is numpy-free.
from repro.perf.cache import SimulationCache, cache, simulation_key

__all__ = [
    "SimulationCache",
    "cache",
    "simulation_key",
    "DEFAULT_PRUNE_BAND",
    "DEFAULT_TOP_K",
    "CompiledSpace",
    "CompiledTraffic",
    "best_scaleout_compiled",
    "best_scaleup_compiled",
    "compile_search_space",
    "frontier_indices",
    "simulate_candidates",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.perf.compiler": (
        "DEFAULT_PRUNE_BAND", "DEFAULT_TOP_K", "CompiledSpace", "CompiledTraffic",
        "best_scaleout_compiled", "best_scaleup_compiled", "compile_search_space",
        "frontier_indices", "simulate_candidates",
    ),
})
