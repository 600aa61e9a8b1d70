"""Fig. 9: the scale-up/scale-out design space for one layer.

Both figures evaluate through the vectorized sweep compiler
(:func:`repro.perf.compiler.compile_search_space`), whose materialized
candidates are bit-identical to the scalar
:func:`repro.analytical.search.search_space` — the blessed golden rows
do not move.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.perf.compiler import compile_search_space
from repro.experiments.common import PAPER_MAC_BUDGETS
from repro.topology.layer import Layer
from repro.workloads.language import language_layer


def fig09a_search_space(
    layer: Optional[Layer] = None,
    budgets: Sequence[int] = tuple(PAPER_MAC_BUDGETS),
    min_array_dim: int = 8,
) -> List[Dict]:
    """Every (grid, array shape) point with normalized runtime (Fig. 9a)."""
    layer = layer or language_layer("TF0")
    rows: List[Dict] = []
    for budget in budgets:
        space = compile_search_space(
            layer, budget, min_array_dim=min_array_dim
        ).candidates()
        worst = max(cand.runtime for cand in space)
        for cand in space:
            rows.append(
                {
                    "macs": budget,
                    "partitions": f"{cand.partition_rows}x{cand.partition_cols}",
                    "num_partitions": cand.num_partitions,
                    "array": f"{cand.array_rows}x{cand.array_cols}",
                    "runtime": cand.runtime,
                    "normalized": cand.runtime / worst,
                }
            )
    return rows


def fig09bc_aspect_sweep(
    budget: int,
    layer: Optional[Layer] = None,
    min_array_dim: int = 8,
) -> List[Dict]:
    """Monolithic aspect-ratio sweep with utilization (Fig. 9b/c)."""
    layer = layer or language_layer("TF0")
    space = compile_search_space(
        layer, budget, min_array_dim=min_array_dim
    ).candidates()
    mono = [cand for cand in space if cand.is_monolithic]
    return [
        {
            "macs": budget,
            "array": f"{cand.array_rows}x{cand.array_cols}",
            "aspect_R:C": round(cand.aspect_ratio, 6),
            "runtime": cand.runtime,
            "utilization": round(cand.utilization, 4),
        }
        for cand in sorted(mono, key=lambda cand: cand.aspect_ratio)
    ]


def fig09b_aspect_sweep() -> List[Dict]:
    """Fig. 9b: the aspect-ratio sweep at 2^14 MACs."""
    return fig09bc_aspect_sweep(2**14)


def fig09c_aspect_sweep() -> List[Dict]:
    """Fig. 9c: the aspect-ratio sweep at 2^16 MACs."""
    return fig09bc_aspect_sweep(2**16)
