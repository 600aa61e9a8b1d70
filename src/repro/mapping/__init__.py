"""Spatio-temporal mapping of layers onto systolic arrays (Table III)."""

from repro._lazy import lazy_exports

__all__ = [
    "OperandMapping",
    "gemm_from_mapping",
    "map_layer",
    "map_gemm",
    "Fold",
    "FoldPlan",
    "plan_folds",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.mapping.dims": ("OperandMapping", "gemm_from_mapping", "map_layer", "map_gemm"),
    "repro.mapping.folds": ("Fold", "FoldPlan", "plan_folds"),
})
