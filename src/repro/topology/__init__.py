"""Workload topology (paper Table II): layers, networks, CSV parsing."""

from repro._lazy import lazy_exports

__all__ = [
    "ConvLayer",
    "GemmLayer",
    "Layer",
    "Network",
    "load_topology",
    "parse_topology_text",
    "dump_topology",
    "TOPOLOGY_HEADER",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.topology.layer": ("ConvLayer", "GemmLayer", "Layer"),
    "repro.topology.network": ("Network",),
    "repro.topology.parser": (
        "load_topology", "parse_topology_text", "dump_topology", "TOPOLOGY_HEADER",
    ),
})
