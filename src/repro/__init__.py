"""repro — a reproduction of SCALE-Sim and its scalability methodology.

Paper: "A Systematic Methodology for Characterizing Scalability of DNN
Accelerators using SCALE-Sim" (Samajdar et al., ISPASS 2020).

The public API re-exports the main entry points of each subsystem:

* Describe hardware with :class:`HardwareConfig` and workloads with
  :class:`ConvLayer` / :class:`GemmLayer` / :class:`Network` (or load
  SCALE-Sim config/topology files).
* Simulate cycle-accurately with :class:`Simulator` (scale-up) or
  :class:`ScaleOutSimulator` (partitioned grids).
* Sweep design spaces with the analytical model
  (:func:`scaleup_runtime`, :func:`best_scaleup`, :func:`best_scaleout`,
  :func:`pareto_search`).
* Estimate energy with :func:`energy_of_result`, validate cycle counts
  against the register-level :func:`golden_gemm`, and replay DRAM
  traces through :class:`DramSimulator`.

Every name is resolved on first access (see :mod:`repro._lazy`), so
``import repro`` costs almost nothing and a process imports only the
subsystems it uses.
"""

from repro._lazy import lazy_exports

__all__ = [
    # configuration
    "Dataflow",
    "HardwareConfig",
    "load_config",
    "paper_scaling_config",
    "preset",
    # topology
    "ConvLayer",
    "GemmLayer",
    "Layer",
    "Network",
    "load_topology",
    # mapping
    "OperandMapping",
    "map_layer",
    "map_gemm",
    "plan_folds",
    "TensorAddressLayout",
    # engines
    "LayerResult",
    "RunResult",
    "Simulator",
    "ScaleOutSimulator",
    "simulate",
    "render_report",
    "write_report_csv",
    # analytical
    "CandidateConfig",
    "WorkloadSet",
    "best_scaleout",
    "best_scaleup",
    "candidate_costs",
    "fold_runtime",
    "pareto_search",
    "scaleout_runtime",
    "scaleup_runtime",
    "search_space",
    "unlimited_runtime",
    "TrafficEstimate",
    "estimate_traffic",
    "Recommendation",
    "recommend_configuration",
    # stalls + noc
    "StalledRuntime",
    "bandwidth_limited_runtime",
    "sweet_spot_bandwidth",
    "DegradedMeshNoc",
    "MeshNoc",
    "NocConfig",
    "NocCost",
    "layer_noc_cost",
    # resilience (degraded-mode simulation)
    "FaultMap",
    "RemapPlan",
    "load_fault_map",
    "predict_layer_cycles",
    "random_fault_map",
    "remap_layer",
    "degraded_scaleout_runtime",
    "degraded_scaleup_runtime",
    # energy
    "DEFAULT_ENERGY",
    "EnergyParams",
    "energy_of_result",
    "energy_of_run",
    # golden + dram
    "golden_gemm",
    "DDR4_2400_LIKE",
    "DramAccess",
    "DramSimulator",
    "DramTiming",
    # workloads
    "language_layer",
    "language_models",
    "resnet50",
    # tooling
    "run_sweep",
    "run_sweep_report",
    "sweep_to_csv",
    "pivot_to_csv",
    "SweepLedger",
    "LedgerDiff",
    "reuse_profile",
    "stream_stats",
    # observability
    "trace",
    "metrics",
    "Tracer",
    "MetricsRegistry",
    "ProgressTracker",
    # robust execution
    "CheckpointStore",
    "ExecutionPolicy",
    "Fault",
    "PointRecord",
    "RunReport",
    "SupervisorPolicy",
    "WorkerFault",
    "check_layer_result",
    "check_trace_conservation",
    "execute_grid",
    "execute_point",
    "inject_faults",
    "inject_worker_faults",
    # errors
    "ReproError",
    "ConfigError",
    "TopologyError",
    "MappingError",
    "SimulationError",
    "SearchError",
    "DramError",
    "ExecutionError",
    "PointTimeoutError",
    "CircuitOpenError",
    "WorkerCrashError",
    "SupervisorExhaustedError",
    "SweepError",
    "SweepInterrupted",
    "CheckpointError",
    "StorageError",
    "LedgerCorruptionError",
    "InvariantError",
    "ResilienceError",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.config.hardware": ("Dataflow", "HardwareConfig"),
    "repro.config.parser": ("load_config",),
    "repro.config.presets": ("paper_scaling_config", "preset"),
    "repro.topology.layer": ("ConvLayer", "GemmLayer", "Layer"),
    "repro.topology.network": ("Network",),
    "repro.topology.parser": ("load_topology",),
    "repro.topology.lowering": ("TensorAddressLayout",),
    "repro.mapping.dims": ("OperandMapping", "map_layer", "map_gemm"),
    "repro.mapping.folds": ("plan_folds",),
    "repro.engine.results": ("LayerResult", "RunResult"),
    "repro.engine.scaleout": ("ScaleOutSimulator", "simulate"),
    "repro.engine.simulator": ("Simulator",),
    "repro.engine.stalls": (
        "StalledRuntime", "bandwidth_limited_runtime", "sweet_spot_bandwidth",
    ),
    "repro.engine.reports": ("render_report", "write_report_csv"),
    "repro.analytical.search": (
        "CandidateConfig", "best_scaleout", "best_scaleup", "search_space",
    ),
    "repro.analytical.recommend": ("Recommendation", "recommend_configuration"),
    "repro.analytical.traffic": ("TrafficEstimate", "estimate_traffic"),
    "repro.analytical.multiworkload": ("WorkloadSet", "candidate_costs", "pareto_search"),
    "repro.analytical.runtime": (
        "fold_runtime", "scaleout_runtime", "scaleup_runtime", "unlimited_runtime",
        "degraded_scaleout_runtime", "degraded_scaleup_runtime",
    ),
    "repro.noc.mesh": ("DegradedMeshNoc", "MeshNoc", "NocConfig"),
    "repro.noc.cost": ("NocCost", "layer_noc_cost"),
    "repro.resilience.faultmap": ("FaultMap", "load_fault_map", "random_fault_map"),
    "repro.resilience.remap": ("RemapPlan", "predict_layer_cycles", "remap_layer"),
    "repro.energy.params": ("DEFAULT_ENERGY", "EnergyParams"),
    "repro.energy.model": ("energy_of_result", "energy_of_run"),
    "repro.golden.gemm": ("golden_gemm",),
    "repro.dram.timing": ("DDR4_2400_LIKE", "DramTiming"),
    "repro.dram.request": ("DramAccess",),
    "repro.dram.simulator": ("DramSimulator",),
    "repro.workloads.language": ("language_layer", "language_models"),
    "repro.workloads.resnet50": ("resnet50",),
    "repro.sweep": ("pivot_to_csv", "run_sweep", "run_sweep_report", "sweep_to_csv"),
    "repro.robust.checkpoint": ("CheckpointStore",),
    "repro.robust.policy": ("ExecutionPolicy",),
    "repro.robust.faults": ("Fault", "WorkerFault", "inject_faults", "inject_worker_faults"),
    "repro.robust.report": ("PointRecord", "RunReport"),
    "repro.robust.supervisor": ("SupervisorPolicy",),
    "repro.robust.invariants": ("check_layer_result", "check_trace_conservation"),
    "repro.robust.executor": ("execute_grid", "execute_point"),
    "repro.traceanalysis.reuse": ("reuse_profile",),
    "repro.traceanalysis.streams": ("stream_stats",),
    "repro.obs.metrics": ("MetricsRegistry",),
    "repro.obs.progress": ("ProgressTracker",),
    "repro.obs.tracer": ("Tracer",),
    "repro.obs": ("metrics", "trace"),
    "repro.errors": (
        "CheckpointError", "CircuitOpenError", "ConfigError", "DramError",
        "ExecutionError", "InvariantError", "LedgerCorruptionError", "MappingError",
        "PointTimeoutError", "ReproError", "ResilienceError", "SearchError",
        "SimulationError", "StorageError", "SupervisorExhaustedError", "SweepError",
        "SweepInterrupted", "TopologyError", "WorkerCrashError",
    ),
    "repro.store.ledger": ("LedgerDiff", "SweepLedger"),
    "repro._version": ("__version__",),
})
