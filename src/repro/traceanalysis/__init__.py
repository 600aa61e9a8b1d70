"""Trace analysis: reuse distances and stream statistics.

SCALE-Sim's trace-based methodology exists so traces can be *analyzed*;
this package supplies the standard tools: LRU reuse-distance profiles
(the capacity-miss oracle for any buffer size) and per-stream
statistics, computed directly from the engines' exact address streams.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ReuseProfile",
    "reuse_distances",
    "reuse_profile",
    "StreamStats",
    "stream_addresses",
    "stream_stats",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.traceanalysis.reuse": ("ReuseProfile", "reuse_distances", "reuse_profile"),
    "repro.traceanalysis.streams": ("StreamStats", "stream_addresses", "stream_stats"),
})
