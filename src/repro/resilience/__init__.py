"""repro.resilience — degraded-mode accelerator simulation.

Real multi-pod deployments keep serving when hardware fails.  This
package models that: :class:`FaultMap` describes what is dead (PE
rows/columns, partitions, NoC links), :func:`remap_layer` redistributes
the mapped workload over the survivors with a deterministic
longest-processing-time greedy, and :func:`predict_layer_cycles` gives
the exact degraded analytical runtime the invariant guards hold the
cycle-accurate engine to.

The fault map rides inside :class:`~repro.config.hardware
.HardwareConfig` (``fault_map=``), so every downstream consumer — the
simulators, the NoC cost model, the energy model, reports — sees the
same degradation.  See ``docs/robustness.md`` ("Degraded-mode
simulation") for the full story.
"""

from repro._lazy import lazy_exports

__all__ = [
    "FaultMap",
    "HEALTHY",
    "fault_map_from_dict",
    "load_fault_map",
    "random_fault_map",
    "RemapPlan",
    "TileAssignment",
    "check_remap_conservation",
    "predict_layer_cycles",
    "remap_layer",
    "tile_cycles",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.resilience.faultmap": (
        "HEALTHY", "FaultMap", "fault_map_from_dict", "load_fault_map",
        "random_fault_map",
    ),
    "repro.resilience.remap": (
        "RemapPlan", "TileAssignment", "check_remap_conservation",
        "predict_layer_cycles", "remap_layer", "tile_cycles",
    ),
})
