"""Paper experiments as library functions.

Each module regenerates one table or figure of the paper and returns
its data as a list of row dicts — the benchmarks assert on these, the
CLI ``reproduce`` subcommand prints them, and downstream users can call
them directly (e.g. to re-plot with different budgets).

``run_experiment(name)`` dispatches by the paper's figure/table id.
"""

from repro._lazy import lazy_exports

__all__ = ["available_experiments", "run_experiment"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.registry": ("available_experiments", "run_experiment"),
})
