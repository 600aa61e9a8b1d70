"""Shared utilities: integer math, validation helpers, atomic file io."""

from repro._lazy import lazy_exports

__all__ = [
    "atomic_write_json",
    "atomic_write_text",
    "ceil_div",
    "factor_pairs",
    "is_power_of_two",
    "next_power_of_two",
    "pow2_range",
    "split_evenly",
    "check_positive_int",
    "check_non_negative_int",
    "check_choice",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.utils.atomicio": ("atomic_write_json", "atomic_write_text"),
    "repro.utils.mathutils": (
        "ceil_div", "factor_pairs", "is_power_of_two", "next_power_of_two",
        "pow2_range", "split_evenly",
    ),
    "repro.utils.validation": ("check_positive_int", "check_non_negative_int", "check_choice"),
})
