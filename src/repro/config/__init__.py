"""Hardware configuration (paper Table I): array shape, SRAM sizes, dataflow."""

from repro._lazy import lazy_exports

__all__ = [
    "Dataflow",
    "HardwareConfig",
    "load_config",
    "dump_config",
    "parse_config_text",
    "EYERISS_LIKE",
    "GOOGLE_TPU_LIKE",
    "PAPER_SCALING_SRAM_KB",
    "SMALL_TEST",
    "paper_scaling_config",
    "preset",
    "preset_names",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.config.hardware": ("Dataflow", "HardwareConfig"),
    "repro.config.parser": ("load_config", "dump_config", "parse_config_text"),
    "repro.config.presets": (
        "EYERISS_LIKE", "GOOGLE_TPU_LIKE", "PAPER_SCALING_SRAM_KB", "SMALL_TEST",
        "paper_scaling_config", "preset", "preset_names",
    ),
})
