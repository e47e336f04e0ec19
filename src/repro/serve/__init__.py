"""``repro serve`` — the fault-tolerant verification daemon.

An asyncio HTTP/JSON service over the batch engine: bounded admission
with explicit load shedding, per-tenant fair scheduling, wall-clock job
deadlines enforced through the engine supervisor, a circuit breaker
over repeated worker crashes, a crash-safe job journal (SIGKILL the
daemon mid-job; the restart re-runs the queue and serves byte-identical
verdicts), and graceful SIGTERM drain.  See docs/serve.md.
"""

import importlib

#: Each public name by the module that defines it.  A name is imported on
#: first use, so the CLI reads :mod:`repro.serve.config` (``repro
#: serve``'s flags) without loading the daemon into every command.
_EXPORTS = {
    "repro.serve.breaker": ("CLOSED", "HALF_OPEN", "OPEN", "CircuitBreaker"),
    "repro.serve.config": ("ServeConfig", "ServeConfigError"),
    "repro.serve.jobs": (
        "DONE", "FAILED", "QUEUED", "RUNNING", "Job", "JobError", "JobJournal", "make_job",
    ),
    "repro.serve.metrics": ("ServeMetrics", "serve_prometheus_text"),
    "repro.serve.queue": ("AdmissionError", "AdmissionQueue"),
    "repro.serve.service": ("VerificationService", "execute_job"),
    "repro.serve.http": ("ServeApp", "serve_forever"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
