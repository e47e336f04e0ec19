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

from repro.engine.cache import DEFAULT_CACHE_DIR
from repro.options import option


class ServeConfigError(ValueError):
    """Raised on an invalid daemon configuration."""


@dataclass(frozen=True)
class ServeConfig:
    """Every knob of the verification daemon, each with its ``repro
    serve`` flag (``repro serve --help`` lists them)."""

    host: str = option("127.0.0.1", "--host", "listen address")
    port: int = option(
        8765,
        "--port",
        "listen port; 0 picks a free one and records it in "
        "<cache-dir>/serve/endpoint.json",
    )

    #: Cache directory shared with the batch CLI: the content-addressed
    #: inference cache, the incremental state, and the daemon's own
    #: ``serve/`` spool all live here.
    cache_dir: str = option(DEFAULT_CACHE_DIR, "--cache-dir")

    #: Endpoint of a shared ``repro cache serve`` daemon; when set, the
    #: inference cache layers a remote tier over the local directory
    #: (read-through, write-behind; docs/distributed.md).  ``None``
    #: keeps the daemon local-only; a URL that is not http(s) is refused
    #: when the daemon opens its cache (:func:`repro.engine.open_cache`).
    remote_cache: str | None = option(None, "--remote-cache")

    # -- admission control ---------------------------------------------
    queue_depth: int = option(
        16,
        "--queue-depth",
        "bounded queue depth; submissions past it are shed with "
        "429 + Retry-After",
        metavar="K",
    )
    #: One chatty tenant cannot fill the whole queue.
    tenant_queue_cap: int | None = option(
        None,
        "--tenant-queue-cap",
        "max queued jobs per tenant",
        metavar="N",
        unset="the queue depth",
    )
    #: One slow tenant cannot occupy every worker slot.
    tenant_concurrency: int = option(
        2, "--tenant-concurrency", "max executing jobs per tenant", metavar="N"
    )

    # -- execution ------------------------------------------------------
    #: Each job runs on one executor thread.
    workers: int = option(2, "--workers", "concurrent job slots", metavar="N")
    #: ``BatchVerifier(jobs=...)`` within one job.
    engine_jobs: int = option(
        1, "--engine-jobs", "engine worker count within one job", metavar="N"
    )
    #: Worker pool backend inside a job ("thread" or "process").
    engine_executor: str = option("thread", "--executor")
    #: Measured in seconds from the start of execution, and enforced
    #: twice over: the per-class supervisor deadline quarantines slow
    #: classes (``ENGINE TIMEOUT``), and a job-level backstop fails the
    #: job outright.
    job_deadline: float = option(
        120.0, "--deadline", "per-job wall-clock deadline", metavar="SECONDS"
    )
    #: ``None`` means "the job deadline": a single class can never eat
    #: more than the whole budget.
    class_timeout: float | None = option(
        None,
        "--class-timeout",
        "per-class supervisor deadline",
        metavar="SECONDS",
        unset="the job deadline",
    )
    job_retries: int = option(
        1, "--job-retries", "re-runs of a job after a worker crash", metavar="N"
    )

    # -- circuit breaker ------------------------------------------------
    breaker_threshold: int = option(
        3,
        "--breaker-threshold",
        "consecutive crashes that trip the circuit breaker",
        metavar="N",
    )
    #: The backoff is deterministic: it doubles per consecutive trip, up
    #: to the cap.
    breaker_backoff: float = option(
        1.0,
        "--breaker-backoff",
        "first breaker-open interval; doubles per consecutive trip",
        metavar="SECONDS",
    )
    breaker_max_backoff: float = option(
        30.0,
        "--breaker-max-backoff",
        "cap on the breaker-open interval",
        metavar="SECONDS",
    )

    # -- lifecycle ------------------------------------------------------
    #: In-flight jobs get this long to finish before the daemon exits
    #: anyway (queued jobs are already checkpointed in the journal
    #: either way).
    drain_grace: float = option(
        30.0,
        "--drain-grace",
        "how long a SIGTERM drain waits for in-flight jobs",
        metavar="SECONDS",
    )

    #: The spans are dropped when their jobs retire.
    trace: bool = option(
        False,
        "--trace",
        "collect per-job obs spans (for smoke runs and debugging)",
    )

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ServeConfigError(f"port must be in [0, 65535], got {self.port}")
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
