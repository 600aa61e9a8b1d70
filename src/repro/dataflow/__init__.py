"""Cycle-accurate dataflow engines for OS / WS / IS systolic execution."""

from repro._lazy import lazy_exports

__all__ = [
    "AddressLayout",
    "CycleTrace",
    "DataflowEngine",
    "FoldDemand",
    "OperandSlice",
    "SramCounts",
    "fold_cycles",
    "OutputStationaryEngine",
    "OutputStationaryDataPlaneEngine",
    "WeightStationaryEngine",
    "InputStationaryEngine",
    "engine_for",
    "engine_for_gemm",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dataflow.base": (
        "AddressLayout", "CycleTrace", "DataflowEngine", "FoldDemand", "OperandSlice",
        "SramCounts", "fold_cycles",
    ),
    "repro.dataflow.output_stationary": ("OutputStationaryEngine",),
    "repro.dataflow.output_stationary_dataplane": ("OutputStationaryDataPlaneEngine",),
    "repro.dataflow.weight_stationary": ("WeightStationaryEngine",),
    "repro.dataflow.input_stationary": ("InputStationaryEngine",),
    "repro.dataflow.factory": ("engine_for", "engine_for_gemm"),
})
