"""Service-level metrics of the verification daemon.

One plain in-memory accumulator and its table of Prometheus families,
rendered under the ``repro_serve_*`` prefix by the same
:func:`repro.obs.sinks.render` that writes ``repro check --prom-out``.
The daemon exposes the text form at ``GET /metrics`` and the raw dict in
``/readyz`` payloads and the smoke-test artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.sinks import Family, render


@dataclass
class ServeMetrics:
    """Counters and gauges of one daemon process (monotonic unless noted)."""

    submissions_total: int = 0
    #: Accepted jobs by terminal/queued state transition.
    jobs_queued_total: int = 0
    jobs_started_total: int = 0
    jobs_done_total: int = 0
    jobs_failed_total: int = 0
    #: Explicit load-shed rejections by machine-readable reason.
    rejections: dict[str, int] = field(default_factory=dict)
    #: Crash retries re-enqueued by the supervisor loop.
    retries_total: int = 0
    #: Jobs re-enqueued from the journal after a daemon restart.
    recovered_jobs_total: int = 0
    breaker_trips_total: int = 0
    classes_checked_total: int = 0
    job_seconds_total: float = 0.0
    #: Completed (done or failed) jobs per tenant — the fairness signal.
    tenant_completed: dict[str, int] = field(default_factory=dict)
    journal_write_failures: int = 0
    journal_corrupt_entries: int = 0

    # Gauges (sampled at render time, not monotonic).
    queue_depth: int = 0
    inflight: int = 0
    draining: bool = False
    breaker_state: str = "closed"
    uptime_seconds: float = 0.0

    def reject(self, reason: str) -> None:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1

    def tenant_done(self, tenant: str) -> None:
        self.tenant_completed[tenant] = self.tenant_completed.get(tenant, 0) + 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "submissions_total": self.submissions_total,
            "jobs_queued_total": self.jobs_queued_total,
            "jobs_started_total": self.jobs_started_total,
            "jobs_done_total": self.jobs_done_total,
            "jobs_failed_total": self.jobs_failed_total,
            "rejections_total": dict(sorted(self.rejections.items())),
            "retries_total": self.retries_total,
            "recovered_jobs_total": self.recovered_jobs_total,
            "breaker_trips_total": self.breaker_trips_total,
            "classes_checked_total": self.classes_checked_total,
            "job_seconds_total": round(self.job_seconds_total, 6),
            "tenant_completed_total": dict(sorted(self.tenant_completed.items())),
            "journal_write_failures": self.journal_write_failures,
            "journal_corrupt_entries": self.journal_corrupt_entries,
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "draining": self.draining,
            "breaker_state": self.breaker_state,
            "uptime_seconds": round(self.uptime_seconds, 3),
        }


_BREAKER_STATES = ("closed", "open", "half-open")


#: The ``repro_serve_*`` families over :class:`ServeMetrics`, in
#: exposition order.  Every family is always present; an empty labelled
#: family reads as one ``"none"`` series at 0.
SERVE_FAMILIES: tuple[Family, ...] = (
    Family("jobs_total", "counter", "Job lifecycle transitions by state.",
           lambda m: [("queued", m.jobs_queued_total), ("started", m.jobs_started_total),
                      ("done", m.jobs_done_total), ("failed", m.jobs_failed_total)],
           label="state"),
    Family("submissions_total", "counter", "Submission attempts, accepted or shed.",
           lambda m: [(None, m.submissions_total)]),
    Family("rejections_total", "counter", "Explicitly shed submissions by reason.",
           lambda m: sorted(m.rejections.items()) or [("none", 0)], label="reason"),
    Family("retries_total", "counter", "Jobs re-enqueued after a worker crash.",
           lambda m: [(None, m.retries_total)]),
    Family("recovered_jobs_total", "counter", "Jobs re-enqueued from the journal after a restart.",
           lambda m: [(None, m.recovered_jobs_total)]),
    Family("breaker_trips_total", "counter", "Circuit-breaker open transitions.",
           lambda m: [(None, m.breaker_trips_total)]),
    Family("classes_checked_total", "counter", "Classes verified across all completed jobs.",
           lambda m: [(None, m.classes_checked_total)]),
    Family("job_seconds_total", "counter", "Execution wall time across all completed jobs.",
           lambda m: [(None, round(m.job_seconds_total, 6))]),
    Family("tenant_completed_total", "counter", "Completed (done or failed) jobs per tenant.",
           lambda m: sorted(m.tenant_completed.items()) or [("none", 0)], label="tenant"),
    Family("journal_events_total", "counter", "Journal degradation events by kind.",
           lambda m: [("write_failures", m.journal_write_failures),
                      ("corrupt_entries", m.journal_corrupt_entries)]),
    Family("queue_depth", "gauge", "Jobs currently queued for dispatch.",
           lambda m: [(None, m.queue_depth)]),
    Family("inflight", "gauge", "Jobs currently executing.", lambda m: [(None, m.inflight)]),
    Family("draining", "gauge", "1 while the daemon is draining for shutdown.",
           lambda m: [(None, int(m.draining))]),
    Family("breaker_state", "gauge", "Circuit-breaker state (1 on the active state's label).",
           lambda m: [(state, int(m.breaker_state == state)) for state in _BREAKER_STATES],
           label="state"),
    Family("uptime_seconds", "gauge", "Seconds since the daemon started.",
           lambda m: [(None, round(m.uptime_seconds, 3))]),
)


def serve_prometheus_text(metrics: ServeMetrics) -> str:
    """Render the daemon metrics as the ``repro_serve_*`` exposition."""
    return render("repro_serve", SERVE_FAMILIES, metrics)
