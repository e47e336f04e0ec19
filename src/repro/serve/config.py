"""Configuration of the ``repro serve`` verification daemon.

One frozen dataclass holds every tuning knob (docs/serve.md has the
operator's guide to each).  The defaults are deliberately conservative:
a small bounded queue, a low per-tenant concurrency cap, and a breaker
that trips after a handful of worker-pool crashes — a daemon that sheds
load explicitly beats one that falls over silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


class ServeConfigError(ValueError):
    """Raised on an invalid daemon configuration."""


@dataclass(frozen=True)
class ServeConfig:
    """Every knob of the verification daemon."""

    #: Listen address; port 0 asks the OS for a free port (the chosen
    #: one is printed, and recorded in ``<serve-root>/endpoint.json``).
    host: str = "127.0.0.1"
    port: int = 8765

    #: Cache directory shared with the batch CLI: the content-addressed
    #: inference cache, the incremental state, and the daemon's own
    #: ``serve/`` spool all live here.
    cache_dir: str = ".repro-cache"

    #: Endpoint of a shared ``repro cache serve`` daemon; when set, the
    #: inference cache layers a remote tier over the local directory
    #: (read-through, write-behind; docs/distributed.md).  ``None``
    #: keeps the daemon local-only; a URL that is not http(s) is refused
    #: when the daemon opens its cache (:func:`repro.engine.open_cache`).
    remote_cache: str | None = None

    # -- admission control ---------------------------------------------
    #: Bounded queue depth K: submissions past it are shed with an
    #: explicit 429 + Retry-After, never silently dropped.
    queue_depth: int = 16
    #: Max *queued* jobs per tenant (defaults to ``queue_depth``): one
    #: chatty tenant cannot fill the whole queue.
    tenant_queue_cap: int | None = None
    #: Max *executing* jobs per tenant: one slow tenant cannot occupy
    #: every worker slot.
    tenant_concurrency: int = 2

    # -- execution ------------------------------------------------------
    #: Concurrent job slots (each job runs on one executor thread).
    workers: int = 2
    #: ``BatchVerifier(jobs=...)`` within one job.
    engine_jobs: int = 1
    #: Worker pool backend inside a job ("thread" or "process").
    engine_executor: str = "thread"
    #: Per-job wall-clock deadline in seconds, measured from the start
    #: of execution.  Enforced twice over: the per-class supervisor
    #: deadline quarantines slow classes (``ENGINE TIMEOUT``), and a
    #: job-level backstop fails the job outright.
    job_deadline: float = 120.0
    #: Per-class supervisor deadline; ``None`` means "the job deadline"
    #: (a single class can never eat more than the whole budget).
    class_timeout: float | None = None
    #: Re-executions of a job after a worker crash before it fails.
    job_retries: int = 1

    # -- circuit breaker ------------------------------------------------
    #: Consecutive worker-pool crashes that trip the breaker open.
    breaker_threshold: int = 3
    #: First open interval in seconds; doubles per consecutive trip
    #: (deterministic exponential backoff), capped below.
    breaker_backoff: float = 1.0
    breaker_max_backoff: float = 30.0

    # -- lifecycle ------------------------------------------------------
    #: Grace period for SIGTERM drain: in-flight jobs get this long to
    #: finish before the daemon exits anyway (queued jobs are already
    #: checkpointed in the journal either way).
    drain_grace: float = 30.0

    #: Largest accepted request body.
    max_body_bytes: int = 5 * 1024 * 1024

    #: Collect one obs span per finished job (dropped when the job
    #: retires; meant for smoke runs and debugging).
    trace: bool = False

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ServeConfigError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.tenant_queue_cap is not None and self.tenant_queue_cap < 1:
            raise ServeConfigError(
                f"tenant_queue_cap must be >= 1, got {self.tenant_queue_cap}"
            )
        if self.tenant_concurrency < 1:
            raise ServeConfigError(
                f"tenant_concurrency must be >= 1, got {self.tenant_concurrency}"
            )
        if self.workers < 1:
            raise ServeConfigError(f"workers must be >= 1, got {self.workers}")
        if self.engine_jobs < 1:
            raise ServeConfigError(
                f"engine_jobs must be >= 1, got {self.engine_jobs}"
            )
        if self.job_deadline <= 0:
            raise ServeConfigError(
                f"job_deadline must be positive, got {self.job_deadline}"
            )
        if self.class_timeout is not None and self.class_timeout <= 0:
            raise ServeConfigError(
                f"class_timeout must be positive, got {self.class_timeout}"
            )
        if self.job_retries < 0:
            raise ServeConfigError(
                f"job_retries must be >= 0, got {self.job_retries}"
            )
        if self.breaker_threshold < 1:
            raise ServeConfigError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_backoff <= 0 or self.breaker_max_backoff <= 0:
            raise ServeConfigError("breaker backoff values must be positive")
        if self.drain_grace < 0:
            raise ServeConfigError(
                f"drain_grace must be >= 0, got {self.drain_grace}"
            )

    @property
    def serve_root(self) -> Path:
        """The daemon's persistent spool inside the cache directory."""
        return Path(self.cache_dir) / "serve"

    @property
    def effective_tenant_queue_cap(self) -> int:
        return (
            self.queue_depth
            if self.tenant_queue_cap is None
            else self.tenant_queue_cap
        )

    @property
    def effective_class_timeout(self) -> float:
        return (
            self.job_deadline
            if self.class_timeout is None
            else self.class_timeout
        )
