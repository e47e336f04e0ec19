"""Exact-text goldens and format rules of the Prometheus expositions.

The goldens pin every family of both prefixes byte for byte: the engine
side (``repro_*``, :func:`repro.obs.prometheus_text`) and the daemon
side (``repro_serve_*``, :func:`repro.serve.serve_prometheus_text`).
The format test checks the text-format (0.0.4) rules over the goldens,
a mining payload and partial payloads.
"""

import re

import pytest

from repro.engine.metrics import EngineMetrics
from repro.mine.api import MineReport
from repro.obs import Tracer, metrics_payload, prometheus_text
from repro.serve import serve_prometheus_text
from repro.serve.metrics import ServeMetrics

#: A phase name that needs every label escape: quote, backslash, newline.
ODD_PHASE = 'odd "phase"\\\n'


def busy_engine_payload() -> dict:
    """Every counter nonzero, incremental on, a live remote tier."""
    metrics = EngineMetrics(
        classes=4, waves=2, jobs=3, executor="thread", wall_seconds=0.5,
        class_hits=1, class_misses=3, method_hits=5, method_misses=7,
        cache_writes=9, timings=(), corrupt_entries=2,
        retries=3, quarantines=1, budget_trips=2, timeouts=4, pool_restarts=5,
        incremental=True, reused_verdicts=3, dirty_classes=1,
        checksum_failures=1, write_failures=2, lock_waits=3,
        lock_wait_seconds=0.125, lock_timeouts=4, orphans_removed=5,
        state_save_failures=6, state_merged_entries=7, state_generation=8,
        remote_hits=1, remote_misses=2, remote_puts=3, remote_errors=4,
        remote_degraded=1,
    )
    tracer = Tracer()
    device = tracer.root.child("class", "Device", seconds=1.0)
    device.child("phase", "infer", seconds=0.25)
    device.child("phase", "infer", seconds=0.5)
    device.child("phase", ODD_PHASE, seconds=0.125)
    return metrics_payload(metrics.to_dict(), tracer)


def busy_serve_metrics() -> ServeMetrics:
    return ServeMetrics(
        submissions_total=9, jobs_queued_total=6, jobs_started_total=5,
        jobs_done_total=3, jobs_failed_total=1,
        rejections={"tenant-limit": 1, "queue-full": 2},
        retries_total=1, recovered_jobs_total=2, breaker_trips_total=1,
        classes_checked_total=12, job_seconds_total=1.23456789,
        tenant_completed={'eve "the auditor"': 1, "alice": 3},
        journal_write_failures=1, journal_corrupt_entries=2,
        queue_depth=2, inflight=1, draining=True, breaker_state="half-open",
        uptime_seconds=42.123456,
    )


ENGINE_GOLDEN = r"""# HELP repro_classes Classes in the verified module.
# TYPE repro_classes gauge
repro_classes 4
# HELP repro_waves Topological waves in the schedule.
# TYPE repro_waves gauge
repro_waves 2
# HELP repro_jobs Configured worker count.
# TYPE repro_jobs gauge
repro_jobs 3
# HELP repro_wall_seconds Wall time of the run in seconds.
# TYPE repro_wall_seconds gauge
repro_wall_seconds 0.5
# HELP repro_cache_events_total Cache events by kind.
# TYPE repro_cache_events_total counter
repro_cache_events_total{kind="class_hits"} 1
repro_cache_events_total{kind="class_misses"} 3
repro_cache_events_total{kind="method_hits"} 5
repro_cache_events_total{kind="method_misses"} 7
repro_cache_events_total{kind="writes"} 9
repro_cache_events_total{kind="corrupt_entries"} 2
# HELP repro_incremental_classes_total Incremental run outcome per class, by kind.
# TYPE repro_incremental_classes_total counter
repro_incremental_classes_total{kind="reused"} 3
repro_incremental_classes_total{kind="dirty"} 1
# HELP repro_incremental_reuse_ratio Fraction of class verdicts spliced from the project state.
# TYPE repro_incremental_reuse_ratio gauge
repro_incremental_reuse_ratio 0.75
# HELP repro_store_events_total Crash-safe store events by kind.
# TYPE repro_store_events_total counter
repro_store_events_total{kind="checksum_failures"} 1
repro_store_events_total{kind="write_failures"} 2
repro_store_events_total{kind="lock_waits"} 3
repro_store_events_total{kind="lock_timeouts"} 4
repro_store_events_total{kind="orphans_removed"} 5
repro_store_events_total{kind="state_save_failures"} 6
repro_store_events_total{kind="state_merged_entries"} 7
# HELP repro_store_lock_wait_seconds_total Total time spent waiting on store write locks.
# TYPE repro_store_lock_wait_seconds_total counter
repro_store_lock_wait_seconds_total 0.125
# HELP repro_store_state_generation Generation counter of the persisted project state.
# TYPE repro_store_state_generation gauge
repro_store_state_generation 8
# HELP repro_cache_remote_events_total Remote cache tier events by kind.
# TYPE repro_cache_remote_events_total counter
repro_cache_remote_events_total{kind="hits"} 1
repro_cache_remote_events_total{kind="misses"} 2
repro_cache_remote_events_total{kind="puts"} 3
repro_cache_remote_events_total{kind="errors"} 4
repro_cache_remote_events_total{kind="degraded"} 1
# HELP repro_supervisor_events_total Supervisor recovery events by kind.
# TYPE repro_supervisor_events_total counter
repro_supervisor_events_total{kind="retries"} 3
repro_supervisor_events_total{kind="quarantines"} 1
repro_supervisor_events_total{kind="budget_trips"} 2
repro_supervisor_events_total{kind="timeouts"} 4
repro_supervisor_events_total{kind="pool_restarts"} 5
# HELP repro_phase_seconds_total Wall time per pipeline phase in seconds.
# TYPE repro_phase_seconds_total counter
repro_phase_seconds_total{phase="infer"} 0.75
repro_phase_seconds_total{phase="odd \"phase\"\\\n"} 0.125
# HELP repro_phase_calls_total Phase executions (including cached/skipped records).
# TYPE repro_phase_calls_total counter
repro_phase_calls_total{phase="infer"} 2
repro_phase_calls_total{phase="odd \"phase\"\\\n"} 1
"""

IDLE_SERVE_GOLDEN = r"""# HELP repro_serve_jobs_total Job lifecycle transitions by state.
# TYPE repro_serve_jobs_total counter
repro_serve_jobs_total{state="queued"} 0
repro_serve_jobs_total{state="started"} 0
repro_serve_jobs_total{state="done"} 0
repro_serve_jobs_total{state="failed"} 0
# HELP repro_serve_submissions_total Submission attempts, accepted or shed.
# TYPE repro_serve_submissions_total counter
repro_serve_submissions_total 0
# HELP repro_serve_rejections_total Explicitly shed submissions by reason.
# TYPE repro_serve_rejections_total counter
repro_serve_rejections_total{reason="none"} 0
# HELP repro_serve_retries_total Jobs re-enqueued after a worker crash.
# TYPE repro_serve_retries_total counter
repro_serve_retries_total 0
# HELP repro_serve_recovered_jobs_total Jobs re-enqueued from the journal after a restart.
# TYPE repro_serve_recovered_jobs_total counter
repro_serve_recovered_jobs_total 0
# HELP repro_serve_breaker_trips_total Circuit-breaker open transitions.
# TYPE repro_serve_breaker_trips_total counter
repro_serve_breaker_trips_total 0
# HELP repro_serve_classes_checked_total Classes verified across all completed jobs.
# TYPE repro_serve_classes_checked_total counter
repro_serve_classes_checked_total 0
# HELP repro_serve_job_seconds_total Execution wall time across all completed jobs.
# TYPE repro_serve_job_seconds_total counter
repro_serve_job_seconds_total 0.0
# HELP repro_serve_tenant_completed_total Completed (done or failed) jobs per tenant.
# TYPE repro_serve_tenant_completed_total counter
repro_serve_tenant_completed_total{tenant="none"} 0
# HELP repro_serve_journal_events_total Journal degradation events by kind.
# TYPE repro_serve_journal_events_total counter
repro_serve_journal_events_total{kind="write_failures"} 0
repro_serve_journal_events_total{kind="corrupt_entries"} 0
# HELP repro_serve_queue_depth Jobs currently queued for dispatch.
# TYPE repro_serve_queue_depth gauge
repro_serve_queue_depth 0
# HELP repro_serve_inflight Jobs currently executing.
# TYPE repro_serve_inflight gauge
repro_serve_inflight 0
# HELP repro_serve_draining 1 while the daemon is draining for shutdown.
# TYPE repro_serve_draining gauge
repro_serve_draining 0
# HELP repro_serve_breaker_state Circuit-breaker state (1 on the active state's label).
# TYPE repro_serve_breaker_state gauge
repro_serve_breaker_state{state="closed"} 1
repro_serve_breaker_state{state="open"} 0
repro_serve_breaker_state{state="half-open"} 0
# HELP repro_serve_uptime_seconds Seconds since the daemon started.
# TYPE repro_serve_uptime_seconds gauge
repro_serve_uptime_seconds 0.0
"""

BUSY_SERVE_GOLDEN = r"""# HELP repro_serve_jobs_total Job lifecycle transitions by state.
# TYPE repro_serve_jobs_total counter
repro_serve_jobs_total{state="queued"} 6
repro_serve_jobs_total{state="started"} 5
repro_serve_jobs_total{state="done"} 3
repro_serve_jobs_total{state="failed"} 1
# HELP repro_serve_submissions_total Submission attempts, accepted or shed.
# TYPE repro_serve_submissions_total counter
repro_serve_submissions_total 9
# HELP repro_serve_rejections_total Explicitly shed submissions by reason.
# TYPE repro_serve_rejections_total counter
repro_serve_rejections_total{reason="queue-full"} 2
repro_serve_rejections_total{reason="tenant-limit"} 1
# HELP repro_serve_retries_total Jobs re-enqueued after a worker crash.
# TYPE repro_serve_retries_total counter
repro_serve_retries_total 1
# HELP repro_serve_recovered_jobs_total Jobs re-enqueued from the journal after a restart.
# TYPE repro_serve_recovered_jobs_total counter
repro_serve_recovered_jobs_total 2
# HELP repro_serve_breaker_trips_total Circuit-breaker open transitions.
# TYPE repro_serve_breaker_trips_total counter
repro_serve_breaker_trips_total 1
# HELP repro_serve_classes_checked_total Classes verified across all completed jobs.
# TYPE repro_serve_classes_checked_total counter
repro_serve_classes_checked_total 12
# HELP repro_serve_job_seconds_total Execution wall time across all completed jobs.
# TYPE repro_serve_job_seconds_total counter
repro_serve_job_seconds_total 1.234568
# HELP repro_serve_tenant_completed_total Completed (done or failed) jobs per tenant.
# TYPE repro_serve_tenant_completed_total counter
repro_serve_tenant_completed_total{tenant="alice"} 3
repro_serve_tenant_completed_total{tenant="eve \"the auditor\""} 1
# HELP repro_serve_journal_events_total Journal degradation events by kind.
# TYPE repro_serve_journal_events_total counter
repro_serve_journal_events_total{kind="write_failures"} 1
repro_serve_journal_events_total{kind="corrupt_entries"} 2
# HELP repro_serve_queue_depth Jobs currently queued for dispatch.
# TYPE repro_serve_queue_depth gauge
repro_serve_queue_depth 2
# HELP repro_serve_inflight Jobs currently executing.
# TYPE repro_serve_inflight gauge
repro_serve_inflight 1
# HELP repro_serve_draining 1 while the daemon is draining for shutdown.
# TYPE repro_serve_draining gauge
repro_serve_draining 1
# HELP repro_serve_breaker_state Circuit-breaker state (1 on the active state's label).
# TYPE repro_serve_breaker_state gauge
repro_serve_breaker_state{state="closed"} 0
repro_serve_breaker_state{state="open"} 0
repro_serve_breaker_state{state="half-open"} 1
# HELP repro_serve_uptime_seconds Seconds since the daemon started.
# TYPE repro_serve_uptime_seconds gauge
repro_serve_uptime_seconds 42.123
"""


class TestGoldens:
    def test_busy_engine_payload(self):
        assert prometheus_text(busy_engine_payload()) == ENGINE_GOLDEN

    def test_idle_daemon(self):
        assert serve_prometheus_text(ServeMetrics()) == IDLE_SERVE_GOLDEN

    def test_busy_daemon(self):
        assert serve_prometheus_text(busy_serve_metrics()) == BUSY_SERVE_GOLDEN


#: Metric names, and (without the colon) label names, per the text format.
METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
LABEL_NAME = r"[a-zA-Z_][a-zA-Z0-9_]*"
#: A label value: anything but a raw quote, backslash or newline, plus
#: the three escapes.
LABEL_VALUE = r'(?:[^"\\\n]|\\["\\n])*'


def assert_well_formed(text: str) -> None:
    """HELP then TYPE once per family, before its samples; legal names;
    numeric values; a trailing newline."""
    assert text.endswith("\n")
    families: list[str] = []
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        match = re.fullmatch(rf"# HELP ({METRIC_NAME}) \S.*", lines[index])
        assert match, lines[index]
        name = match[1]
        assert name not in families, f"{name} declared twice"
        families.append(name)
        assert re.fullmatch(
            rf"# TYPE {name} (counter|gauge)", lines[index + 1]
        ), lines[index + 1]
        index += 2
        samples = 0
        while index < len(lines) and not lines[index].startswith("#"):
            match = re.fullmatch(
                rf'{name}(?:\{{{LABEL_NAME}="{LABEL_VALUE}"\}})? (\S+)',
                lines[index],
            )
            assert match, lines[index]
            float(match[1])
            samples += 1
            index += 1
        assert samples, f"{name} has no samples"


def idle_engine_payload() -> dict:
    metrics = EngineMetrics(
        classes=0, waves=0, jobs=1, executor="thread", wall_seconds=0.0,
        class_hits=0, class_misses=0, method_hits=0, method_misses=0,
        cache_writes=0, timings=(),
    )
    return metrics_payload(metrics.to_dict(), None)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(ENGINE_GOLDEN, id="engine-golden"),
        pytest.param(IDLE_SERVE_GOLDEN, id="idle-daemon-golden"),
        pytest.param(BUSY_SERVE_GOLDEN, id="busy-daemon-golden"),
        pytest.param(
            prometheus_text(metrics_payload(MineReport("m.py").metrics(), None)),
            id="mining",
        ),
        pytest.param(prometheus_text(idle_engine_payload()), id="idle-engine"),
        pytest.param(prometheus_text({"classes": 1}), id="scalar-only"),
        pytest.param(
            prometheus_text({"cache": {"class_hits": 0}, "store": {}}),
            id="partial-sections",
        ),
        pytest.param(
            prometheus_text(
                {"jobs": 2, "remote": {"hits": 0}, "obs": {"phases": {}}}
            ),
            id="idle-remote-no-phases",
        ),
    ],
)
def test_exposition_is_well_formed(text):
    assert_well_formed(text)
