"""Cycle-level DRAM back-end (the DRAMSim2 stand-in of Sec. II-B).

SCALE-Sim emits DRAM traces meant to be replayed through a memory
simulator; this package provides one: a multi-channel, multi-bank
model with open-page policy, first-ready scheduling and classic
tRCD/tCL/tRP/tRAS timing.  It answers the question the paper poses in
Fig. 11 — whether a real DRAM device can sustain the stall-free
bandwidth the accelerator demands.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DramTiming",
    "DDR4_2400_LIKE",
    "DramAccess",
    "DramSimulator",
    "DramStats",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dram.timing": ("DramTiming", "DDR4_2400_LIKE"),
    "repro.dram.request": ("DramAccess",),
    "repro.dram.simulator": ("DramSimulator", "DramStats"),
})
