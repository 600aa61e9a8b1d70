"""Accelerator memory system: double-buffered SRAMs and DRAM demand."""

from repro._lazy import lazy_exports

__all__ = [
    "BufferSet",
    "DoubleBuffer",
    "OperandTraffic",
    "operand_dram_traffic",
    "BandwidthProfile",
    "DramTraffic",
    "compute_dram_traffic",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.memory.buffers": ("BufferSet", "DoubleBuffer"),
    "repro.memory.reuse": ("OperandTraffic", "operand_dram_traffic"),
    "repro.memory.bandwidth": ("BandwidthProfile", "DramTraffic", "compute_dram_traffic"),
})
