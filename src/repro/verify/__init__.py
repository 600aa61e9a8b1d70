"""Differential verification: fuzzing, metamorphic properties, shrinking.

``repro.verify`` is the subsystem behind the ``repro verify`` CLI
subcommand.  It cross-examines the library's independent models of the
same machine (iterative engine, closed-form analytical equations,
fold-plan shape classes, PE-level golden array, degraded-mode remap
prediction), checks metamorphic relations between related scenarios,
shrinks every violation to a minimal repro, publishes it as a
replayable regression bundle, and guards the paper's reproduced
numbers behind blessed golden baselines.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BaselineReport",
    "CORPUS_DIRNAME",
    "CaseGenerator",
    "MUTANTS",
    "MutationReport",
    "PROPERTIES",
    "Property",
    "VerifyCase",
    "VerifyReport",
    "Violation",
    "assert_baselines",
    "bless",
    "blessed_experiments",
    "bundle_from_violation",
    "check_baselines",
    "load_baseline",
    "load_bundle",
    "load_corpus",
    "replay_bundle",
    "replay_corpus",
    "resolve_properties",
    "run_mutation_smoke",
    "run_verify",
    "shrink_case",
    "shrink_text",
    "write_bundle",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.verify.baseline": (
        "BaselineReport", "assert_baselines", "bless", "blessed_experiments",
        "check_baselines", "load_baseline",
    ),
    "repro.verify.cases": ("VerifyCase",),
    "repro.verify.corpus": (
        "CORPUS_DIRNAME", "bundle_from_violation", "load_bundle", "load_corpus",
        "replay_bundle", "replay_corpus", "write_bundle",
    ),
    "repro.verify.generate": ("CaseGenerator",),
    "repro.verify.harness": ("VerifyReport", "run_verify"),
    "repro.verify.mutation": ("MUTANTS", "MutationReport", "run_mutation_smoke"),
    "repro.verify.oracles": ("Violation",),
    "repro.verify.properties": ("PROPERTIES", "Property", "resolve_properties"),
    "repro.verify.shrink": ("shrink_case", "shrink_text"),
})
