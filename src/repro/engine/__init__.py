"""Simulation engines: single-array (scale-up) and partitioned (scale-out)."""

from repro._lazy import lazy_exports

__all__ = [
    "LayerResult",
    "RunResult",
    "Simulator",
    "ScaleOutSimulator",
    "PartitionShare",
    "layer_report_rows",
    "render_report",
    "write_report_csv",
    "write_sram_trace_csv",
    "dram_request_stream",
    "StalledRuntime",
    "bandwidth_limited_runtime",
    "sweet_spot_bandwidth",
    "SramBandwidthReport",
    "demand_histogram",
    "sram_bandwidth_report",
    "chainable",
    "interlayer_savings",
    "run_network_with_interlayer_reuse",
    "PipelineResult",
    "StageResult",
    "balance_stages",
    "run_pipelined",
    "RooflinePoint",
    "roofline_point",
    "RunSummary",
    "amdahl_speedup_limit",
    "summarize_run",
    "load_run_result",
    "save_run_result",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.engine.results": ("LayerResult", "RunResult"),
    "repro.engine.simulator": ("Simulator",),
    "repro.engine.scaleout": ("ScaleOutSimulator", "PartitionShare"),
    "repro.engine.reports": ("layer_report_rows", "render_report", "write_report_csv"),
    "repro.engine.tracefiles": ("write_sram_trace_csv", "dram_request_stream"),
    "repro.engine.stalls": (
        "StalledRuntime", "bandwidth_limited_runtime", "sweet_spot_bandwidth",
    ),
    "repro.engine.sram_bandwidth": (
        "SramBandwidthReport", "demand_histogram", "sram_bandwidth_report",
    ),
    "repro.engine.interlayer": (
        "chainable", "interlayer_savings", "run_network_with_interlayer_reuse",
    ),
    "repro.engine.pipeline": (
        "PipelineResult", "StageResult", "balance_stages", "run_pipelined",
    ),
    "repro.engine.roofline": ("RooflinePoint", "roofline_point"),
    "repro.engine.summary": ("RunSummary", "amdahl_speedup_limit", "summarize_run"),
    "repro.engine.persistence": ("load_run_result", "save_run_result"),
})
