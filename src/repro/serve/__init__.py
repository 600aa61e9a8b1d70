"""Simulation-as-a-service (``repro.serve``).

A long-lived daemon wrapping the simulator behind JSON over localhost
HTTP or a unix socket, with admission control (bounded queue + 429
back-pressure, per-client quotas), single-flight dedup of identical
in-flight requests, the shared :mod:`repro.store` result store, and a
SIGTERM drain mirroring the supervised pool's.  See
:mod:`repro.serve.daemon` for the protocol and docs/service.md for the
operator guide.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DEFAULT_PORT",
    "JOB_KINDS",
    "ReproHTTPServer",
    "ServiceClient",
    "ServicePolicy",
    "SimulationService",
    "UnixHTTPServer",
    "execute_job",
    "job_key",
    "make_server",
    "normalize_request",
    "serve_until_signalled",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.client": ("DEFAULT_PORT", "ServiceClient"),
    "repro.serve.daemon": (
        "ReproHTTPServer", "ServicePolicy", "SimulationService", "UnixHTTPServer",
        "make_server", "serve_until_signalled",
    ),
    "repro.serve.jobs": ("JOB_KINDS", "execute_job", "job_key", "normalize_request"),
})
