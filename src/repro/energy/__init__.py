"""Event-count energy model (paper Sec. IV-A, Fig. 12)."""

from repro._lazy import lazy_exports

__all__ = [
    "EnergyParams",
    "DEFAULT_ENERGY",
    "EnergyBreakdown",
    "energy_of_result",
    "energy_of_run",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.energy.params": ("EnergyParams", "DEFAULT_ENERGY"),
    "repro.energy.model": ("EnergyBreakdown", "energy_of_result", "energy_of_run"),
})
