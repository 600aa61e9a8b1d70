"""Analytical runtime model and design-space search (paper Sec. III)."""

from repro._lazy import lazy_exports

__all__ = [
    "fold_runtime",
    "unlimited_runtime",
    "scaleup_runtime",
    "scaleout_runtime",
    "degraded_scaleup_runtime",
    "degraded_scaleout_runtime",
    "mapping_utilization",
    "CandidateConfig",
    "array_shapes",
    "best_scaleup",
    "best_scaleout",
    "partition_grids",
    "search_space",
    "WorkloadSet",
    "pareto_search",
    "candidate_costs",
    "per_workload_losses",
    "TrafficEstimate",
    "estimate_traffic",
    "ConfigScore",
    "estimate_sram_counts",
    "pareto_front",
    "score_candidate",
    "score_candidates",
    "AggregateScore",
    "Recommendation",
    "recommend_configuration",
    "DataflowChoice",
    "best_dataflow",
    "plan_network_dataflows",
    "plan_savings",
    "ceil_div_v",
    "exact_cycles_v",
    "estimate_traffic_v",
    "fold_runtime_v",
    "mapping_utilization_v",
    "scaleout_runtime_v",
    "scaleup_runtime_v",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analytical.runtime": (
        "fold_runtime", "unlimited_runtime", "scaleup_runtime", "scaleout_runtime",
        "degraded_scaleup_runtime", "degraded_scaleout_runtime", "mapping_utilization",
    ),
    "repro.analytical.search": (
        "CandidateConfig", "array_shapes", "best_scaleup", "best_scaleout",
        "partition_grids", "search_space",
    ),
    "repro.analytical.traffic": ("TrafficEstimate", "estimate_traffic"),
    "repro.analytical.recommend": ("AggregateScore", "Recommendation", "recommend_configuration"),
    "repro.analytical.objectives": (
        "ConfigScore", "estimate_sram_counts", "pareto_front", "score_candidate",
        "score_candidates",
    ),
    "repro.analytical.dataflow_choice": (
        "DataflowChoice", "best_dataflow", "plan_network_dataflows", "plan_savings",
    ),
    "repro.analytical.multiworkload": (
        "WorkloadSet", "pareto_search", "candidate_costs", "per_workload_losses",
    ),
    "repro.analytical.vectorized": (
        "ceil_div_v", "exact_cycles_v", "estimate_traffic_v", "fold_runtime_v",
        "mapping_utilization_v", "scaleout_runtime_v", "scaleup_runtime_v",
    ),
})
