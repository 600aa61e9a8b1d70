"""Name-based dispatch over the paper's experiments.

Each id names its builder as ``"module:function"``; the figure module is
imported only when that id runs, so ``table*`` ids need no numpy and a
figure pays for its own dependencies alone.
"""

from __future__ import annotations

import importlib
from typing import Dict, List

_EXPERIMENTS: Dict[str, str] = {
    "table1": "repro.experiments.tables:table1_config_schema",
    "table2": "repro.experiments.tables:table2_topology_schema",
    "table3": "repro.experiments.tables:table3_mapping",
    "table4": "repro.experiments.tables:table4_language_dims",
    "fig4": "repro.experiments.fig04:fig04_validation",
    "fig9a": "repro.experiments.fig09:fig09a_search_space",
    "fig9b": "repro.experiments.fig09:fig09b_aspect_sweep",
    "fig9c": "repro.experiments.fig09:fig09c_aspect_sweep",
    "fig10a": "repro.experiments.fig10:fig10a_resnet",
    "fig10b": "repro.experiments.fig10:fig10b_language",
    "fig11abc": "repro.experiments.fig11:fig11_resnet_cba3",
    "fig11def": "repro.experiments.fig11:fig11_transformer_tf0",
    "fig12": "repro.experiments.fig12:fig12_energy",
    "fig13-resnet": "repro.experiments.fig13:fig13_resnet",
    "fig13-language": "repro.experiments.fig13:fig13_language",
    "fig14-resnet": "repro.experiments.fig13:fig14_resnet",
    "fig14-language": "repro.experiments.fig13:fig14_language",
    "resilience": "repro.experiments.resilience:resilience_experiment",
}


def available_experiments() -> List[str]:
    """Experiment ids accepted by :func:`run_experiment`, sorted."""
    return sorted(_EXPERIMENTS)


def run_experiment(name: str) -> List[Dict]:
    """Regenerate one paper table/figure; returns its data rows."""
    try:
        target = _EXPERIMENTS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {available_experiments()}"
        ) from None
    module, _, function = target.partition(":")
    return getattr(importlib.import_module(module), function)()
