"""Durable, content-addressed simulation result store (``repro.store``).

Promotes the in-process LRU of :mod:`repro.perf.cache` to a crash-safe
cross-run cache on disk: identical grid points simulate once, ever.
See :mod:`repro.store.result_store` for the durability contract and
:mod:`repro.store.runtime` for how the engine and worker processes
find the active store.

:mod:`repro.store.ledger` adds the columnar sweep ledger — sealed,
checksummed segments (:mod:`repro.store.segment`) that make whole
sweeps durable, corruption-recoverable and incrementally re-runnable.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DEFAULT_SEGMENT_ENTRIES",
    "LedgerDiff",
    "SCHEMA_VERSION",
    "STORE_ENV_VAR",
    "ResultStore",
    "Segment",
    "SegmentInfo",
    "SweepLedger",
    "encode_segment",
    "write_segment",
    "active",
    "configure",
    "deactivate",
    "decode_result_pair",
    "disable",
    "encode_result_pair",
    "payload_checksum",
    "probe",
    "record",
    "store_key",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.store.ledger": ("DEFAULT_SEGMENT_ENTRIES", "LedgerDiff", "SweepLedger"),
    "repro.store.records": ("decode_result_pair", "encode_result_pair"),
    "repro.store.result_store": ("SCHEMA_VERSION", "ResultStore", "payload_checksum"),
    "repro.store.runtime": (
        "STORE_ENV_VAR", "active", "configure", "deactivate", "disable", "probe",
        "record", "store_key",
    ),
    "repro.store.segment": ("Segment", "SegmentInfo", "encode_segment", "write_segment"),
})
