"""The verification service: queue, breaker, journal and workers, wired.

:class:`VerificationService` is the daemon minus HTTP — everything here
is driven through plain method calls from the event loop, which is what
the in-process tests exercise (the HTTP layer in
:mod:`repro.serve.http` is a thin translation on top).

The lifecycle of a submission::

    submit()           admission control: draining? breaker open? queue
                       full? tenant over cap?  → explicit AdmissionError
                       (never a silent drop); otherwise spool the
                       sources, journal the QUEUED record, enqueue
    dispatcher loop    round-robin take() across tenants, gated on free
                       worker slots and the circuit breaker
    _run_job()         execute on the thread pool under the job's
                       wall-clock deadline; crashes retry up to
                       job_retries then fail the job and feed the
                       breaker; every transition is journaled
    _keep_finished()   hold the finished job; past RETAINED_JOBS retire
                       the oldest finished one (memory, journal, spool)

Execution happens in :func:`execute_job`, a module-level pure-ish
function running the existing :class:`~repro.engine.engine.BatchVerifier`
supervisor with the shared content-addressed cache — the per-class
timeout defaults to the job deadline, so the supervisor (not the
service) is what bounds a runaway class and stamps ``ENGINE TIMEOUT``
quarantine diagnostics into the report.  The ``serve-dispatch`` fault
site fires at the top of the worker, after the journal write: a
``sigkill`` rule there dies with the job journaled as RUNNING, which is
exactly what the recovery chaos test needs.
"""

from __future__ import annotations

import heapq
import os
import time
import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Callable

from repro.engine import faults, store
from repro.engine.engine import open_cache, verify_path
from repro.frontend.model_ast import FrontendError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.serve.breaker import OPEN, CircuitBreaker
from repro.serve.config import ServeConfig
from repro.serve.jobs import (
    DONE,
    FAILED,
    KIND_CRASH,
    KIND_DEADLINE,
    KIND_INVALID,
    KIND_LOST_SPOOL,
    QUEUED,
    RUNNING,
    Job,
    JobJournal,
    job_seq,
    make_job,
    requeued,
)
from repro.serve.metrics import ServeMetrics, serve_prometheus_text
from repro.serve.queue import (
    REASON_BREAKER_OPEN,
    REASON_DRAINING,
    AdmissionError,
    AdmissionQueue,
)

#: Dispatcher poll interval when idle (a notify wakes it immediately).
_TICK = 0.05

#: How many finished (done or failed) jobs the daemon holds — in
#: memory, in the journal and in the spool.  Past it the finished job
#: with the lowest sequence number is retired; queued and running jobs
#: never are, nor is the job that just finished.  A retired id answers
#: 410 (:meth:`VerificationService.retired`).  A thousand finished jobs
#: with reports of up to a kilobyte take about 1 MB.
RETAINED_JOBS = 1000


def execute_job(target: str, job_id: str, **engine: Any) -> dict[str, Any]:
    """Run one verification job (thread-pool side); ``engine`` holds
    the :class:`~repro.engine.engine.BatchVerifier` keywords.

    Returns the merged report plus shape numbers.  Raises on crashes —
    the dispatcher decides between retry, quarantine and breaker
    feedback.  Runs the same engine as ``repro check``, so a job's
    report is byte-identical to a batch run over the spooled sources.
    """
    started = time.perf_counter()
    faults.fire("serve-dispatch", job_id)
    batch = verify_path(target, **engine)
    merged = batch.merged()
    return {
        "ok": merged.ok,
        "report": merged.format(),
        "classes": len(batch.class_results),
        "seconds": time.perf_counter() - started,
    }


class VerificationService:
    """The daemon's moving parts behind one asyncio-friendly facade."""

    def __init__(
        self,
        config: ServeConfig,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config
        self.journal = JobJournal(config.serve_root)
        self.queue = AdmissionQueue(
            config.queue_depth, config.effective_tenant_queue_cap
        )
        self.breaker = CircuitBreaker(
            config.breaker_threshold,
            config.breaker_backoff,
            config.breaker_max_backoff,
            clock=clock,
        )
        self.metrics = ServeMetrics()
        self.tracer: Any = Tracer() if config.trace else NULL_TRACER
        self.cache = open_cache(config.cache_dir, config.remote_cache)
        #: The :class:`BatchVerifier` keywords of every job.
        self.engine: dict[str, Any] = {
            "jobs": config.engine_jobs,
            "executor": config.engine_executor,
            "cache": self.cache,
            "timeout": config.effective_class_timeout,
        }
        #: Every job this process holds, id → latest state: the queued
        #: and running ones, and the newest RETAINED_JOBS finished ones
        #: (loaded from the journal too, so a restarted daemon keeps
        #: serving finished verdicts).
        self.jobs: dict[str, Job] = {}
        #: (seq, id) of the finished jobs held, a min-heap: the next to
        #: retire is on top.
        self._finished: list[tuple[int, str]] = []
        self.draining = False
        self._seq = 1
        self._started_wall = time.time()
        self._started_mono = time.monotonic()
        self._active: dict[str, int] = {}  # tenant → executing jobs
        #: Monotonic start instants of RUNNING jobs.  Durations must
        #: never come from ``time.time()`` diffs — a clock step (NTP,
        #: DST, manual set) would poison ``job_seconds_total`` and with
        #: it every Retry-After hint.  Wall timestamps stay on the Job
        #: for display and the journal only.
        self._job_started_mono: dict[str, float] = {}
        self._busy = 0  # occupied worker threads (deadline-expired included)
        self._pool: ThreadPoolExecutor | None = None
        self._dispatcher: asyncio.Task | None = None
        self._tasks: dict[str, asyncio.Task] = {}
        self._wake: asyncio.Event | None = None
        self._update: asyncio.Event | None = None
        self.drained = False
        #: What :meth:`recover` returned; ``None`` until it has run.
        self._recovered: int | None = None

    # -- lifecycle -----------------------------------------------------

    def recover(self) -> int:
        """Reload the journal; re-enqueue every non-terminal job.

        Returns the number of jobs re-enqueued.  A job whose spool
        vanished (cache cleared between runs) fails with a
        ``lost-spool`` verdict instead of blocking recovery.  Finished
        jobs past :data:`RETAINED_JOBS` retire as they load, oldest
        first.  The journal is read once: a later call returns the
        first call's count.
        """
        if self._recovered is not None:
            return self._recovered
        loaded = self.journal.load_all()
        recovered = 0
        for job in loaded:
            if job.id in self.jobs:
                # Already known in-memory (submitted before start()):
                # the live object is newer than its journal record.
                continue
            if job.terminal:
                self.jobs[job.id] = job
                self._keep_finished(job)
                continue
            if self.journal.check_target(job) is None:
                self._finish_failed(
                    job, KIND_LOST_SPOOL, "spool lost across restart"
                )
                continue
            fresh = requeued(job)
            self.journal.record(fresh)
            self.jobs[fresh.id] = fresh
            self.queue.restore(fresh)
            self.metrics.recovered_jobs_total += 1
            self.metrics.jobs_queued_total += 1
            recovered += 1
        self._seq = self.journal.next_seq(loaded)
        self._recovered = recovered
        return recovered

    async def start(self) -> int:
        """Sweep the cache, recover the journal (unless :meth:`recover`
        already has) and start the dispatcher; returns the number of
        recovered (re-enqueued) jobs.

        The sweep removes the ``.tmp-*`` files crashed writers left in
        the cache; the age gate keeps it away from the live writes of
        other processes sharing the directory.
        """
        self.cache.gc_tmp(min_age_seconds=store.DEFAULT_TMP_GC_MIN_AGE)
        self._wake = asyncio.Event()
        self._update = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        recovered = self.recover()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="repro-serve-dispatcher"
        )
        return recovered

    async def drain(self) -> dict[str, Any]:
        """Graceful shutdown: stop intake, let in-flight jobs finish
        (up to ``drain_grace``), leave queued jobs checkpointed.

        Queued jobs are already durable — each was journaled as QUEUED
        at admission — so stopping the dispatcher *is* the checkpoint:
        the next daemon start re-enqueues them and their verdicts come
        out byte-identical.
        """
        if self.draining:
            while not self.drained:
                await asyncio.sleep(_TICK)
            return self.drain_summary()
        self.draining = True
        self.metrics.draining = True
        if self._wake is not None:
            self._wake.set()
        if self._dispatcher is not None:
            await self._dispatcher
        pending = [task for task in self._tasks.values() if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=self.config.drain_grace)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        # Drain the cache's write-behind queue too: verdicts computed
        # by the last jobs must reach the remote tier before exit.
        self.cache.flush()
        self._refresh_gauges()
        self.drained = True
        self._notify()
        return self.drain_summary()

    def drain_summary(self) -> dict[str, Any]:
        return {
            "completed": self.metrics.jobs_done_total
            + self.metrics.jobs_failed_total,
            "checkpointed": len(self.queue),
            "abandoned_inflight": sum(
                1 for task in self._tasks.values() if not task.done()
            ),
        }

    # -- admission -----------------------------------------------------

    def submit(self, tenant: str, files: dict[str, str]) -> Job:
        """Admit a submission or raise (``JobError`` on bad input,
        ``AdmissionError`` on load shed — both explicit)."""
        self.metrics.submissions_total += 1
        faults.fire("serve-accept", tenant)
        if self.draining:
            self.metrics.reject(REASON_DRAINING)
            raise AdmissionError(
                REASON_DRAINING,
                "daemon is draining; resubmit to the next instance",
                self.config.drain_grace,
            )
        if self.breaker.state == OPEN and self.breaker.retry_after() > 0:
            self.metrics.reject(REASON_BREAKER_OPEN)
            raise AdmissionError(
                REASON_BREAKER_OPEN,
                "circuit breaker open after repeated worker crashes",
                self.breaker.retry_after(),
            )
        job, validated = make_job(
            self._seq, tenant, files, self.config.job_deadline
        )
        try:
            self.queue.submit(job, self._retry_after_hint())
        except AdmissionError as error:
            self.metrics.reject(error.reason)
            raise
        self._seq += 1
        # Durability before dispatch: spool first, then the journal
        # record; only then can the dispatcher (same event loop — no
        # preemption before we return) see the job.
        self.journal.write_spool(job, validated)
        self.journal.record(job)
        self.jobs[job.id] = job
        self.metrics.jobs_queued_total += 1
        self.tracer.counter("serve.submissions")
        self._notify()
        return job

    def _retry_after_hint(self) -> float:
        """A deterministic Retry-After for shed submissions: the mean
        job duration so far, clamped to [0.1, deadline]."""
        finished = self.metrics.jobs_done_total + self.metrics.jobs_failed_total
        mean = (
            self.metrics.job_seconds_total / finished if finished else 1.0
        )
        return round(min(max(mean, 0.1), self.config.job_deadline), 3)

    # -- dispatch ------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._wake is not None
        while not self.draining:
            self._refresh_gauges()
            job = None
            if self._busy < self.config.workers:
                job = self.queue.take(
                    self._active, self.config.tenant_concurrency
                )
            if job is None:
                await self._tick()
                continue
            if not self.breaker.allow():
                # Put it back where it came from; probe again next tick.
                self.queue.restore(job, front=True)
                await self._tick()
                continue
            self._start_job(job)

    async def _tick(self) -> None:
        assert self._wake is not None
        try:
            await asyncio.wait_for(self._wake.wait(), timeout=_TICK)
        except asyncio.TimeoutError:
            pass
        self._wake.clear()

    def _start_job(self, job: Job) -> None:
        running = replace(
            job,
            state=RUNNING,
            started_at=time.time(),
            attempts=job.attempts + 1,
        )
        self.journal.record(running)
        self.jobs[job.id] = running
        self._job_started_mono[job.id] = time.monotonic()
        self._active[job.tenant] = self._active.get(job.tenant, 0) + 1
        self._busy += 1
        self.metrics.jobs_started_total += 1
        task = asyncio.create_task(
            self._run_job(running), name=f"repro-serve-job-{job.id}"
        )
        self._tasks[job.id] = task
        task.add_done_callback(lambda _t, job_id=job.id: self._tasks.pop(job_id, None))
        self._notify()

    async def _run_job(self, job: Job) -> None:
        target = self.journal.check_target(job)
        if target is None:
            self._release_slot(job.tenant)
            self._finish_failed(job, KIND_LOST_SPOOL, "spool lost before execution")
            return
        assert self._pool is not None
        loop = asyncio.get_running_loop()
        future = asyncio.ensure_future(
            loop.run_in_executor(
                self._pool,
                lambda: execute_job(str(target), job.id, **self.engine),
            )
        )
        # The worker *thread* outlives a deadline expiry (Python cannot
        # kill a thread), so the slot frees when the thread actually
        # finishes, not when the job's fate is decided.
        future.add_done_callback(
            lambda _f, tenant=job.tenant: self._release_slot(tenant)
        )
        try:
            outcome = await asyncio.wait_for(
                asyncio.shield(future), timeout=job.deadline
            )
        except asyncio.TimeoutError:
            # The supervisor's per-class timeout (≤ the deadline) will
            # unwind the thread shortly; the job fails *now*.
            future.add_done_callback(lambda f: f.cancelled() or f.exception())
            self._finish_failed(
                job,
                KIND_DEADLINE,
                f"wall-clock deadline of {job.deadline:g}s exceeded",
            )
            return
        except asyncio.CancelledError:
            raise
        except FrontendError as error:
            self._finish_failed(job, KIND_INVALID, f"unparseable project: {error}")
            return
        except Exception as error:  # worker crash
            self._crashed(job, error)
            return
        self.breaker.record_success()
        self._job_started_mono.pop(job.id, None)
        done = replace(
            job,
            state=DONE,
            finished_at=time.time(),
            ok=bool(outcome["ok"]),
            report=outcome["report"],
            classes=int(outcome["classes"]),
            seconds=float(outcome["seconds"]),
        )
        self.journal.record(done)
        self.jobs[job.id] = done
        self._keep_finished(done)
        self.metrics.jobs_done_total += 1
        self.metrics.classes_checked_total += done.classes
        self.metrics.job_seconds_total += done.seconds
        self.metrics.tenant_done(job.tenant)
        if self.tracer.enabled:
            self.tracer.root.child(
                "serve",
                f"job:{job.id}",
                seconds=done.seconds,
                tenant=job.tenant,
                classes=done.classes,
                ok=done.ok,
            )
            self.tracer.counter("serve.jobs.done")
        self._notify()

    def _crashed(self, job: Job, error: BaseException) -> None:
        """A crash escaped the engine's own supervisor: retry the whole
        job if budget remains, feed the circuit breaker either way."""
        self.breaker.record_failure()
        detail = f"{type(error).__name__}: {error}"
        if job.attempts <= self.config.job_retries:
            self._job_started_mono.pop(job.id, None)
            retried = replace(job, state=QUEUED, started_at=None)
            self.journal.record(retried)
            self.jobs[job.id] = retried
            self.queue.restore(retried)
            self.metrics.retries_total += 1
            self.metrics.jobs_queued_total += 1
            self.tracer.counter("serve.jobs.retried")
            self._notify()
        else:
            self._finish_failed(job, KIND_CRASH, detail)

    def _finish_failed(self, job: Job, kind: str, error: str) -> None:
        # Failed jobs count in _retry_after_hint's denominator, so they
        # must contribute their (monotonic) duration to the numerator
        # too — else every failure drags the mean toward zero.  Jobs
        # that never started (lost spool at recovery) contribute 0.
        started_mono = self._job_started_mono.pop(job.id, None)
        seconds = (
            max(0.0, time.monotonic() - started_mono)
            if started_mono is not None
            else 0.0
        )
        failed = replace(
            self.jobs.get(job.id, job),
            state=FAILED,
            kind=kind,
            error=error,
            ok=False,
            finished_at=time.time(),
            seconds=seconds,
        )
        self.journal.record(failed)
        self.jobs[job.id] = failed
        self._keep_finished(failed)
        self.metrics.jobs_failed_total += 1
        self.metrics.job_seconds_total += seconds
        self.metrics.tenant_done(job.tenant)
        self.tracer.counter("serve.jobs.failed")
        self._notify()

    def _keep_finished(self, job: Job) -> None:
        """Hold a job that just became terminal, first retiring the
        oldest finished jobs (by sequence number) that would leave more
        than :data:`RETAINED_JOBS` held.

        Retiring drops the job from :attr:`jobs`, deletes its spool and
        its journal record, and drops its ``job:<id>`` trace span.
        """
        while len(self._finished) >= RETAINED_JOBS:
            _seq, job_id = heapq.heappop(self._finished)
            self.jobs.pop(job_id, None)
            self.journal.remove(job_id)
            if self.tracer.enabled:
                name = f"job:{job_id}"
                spans = self.tracer.root.children
                spans[:] = [span for span in spans if span.name != name]
        heapq.heappush(self._finished, (job.seq, job.id))

    def retired(self, job_id: str) -> bool:
        """Was ``job_id`` issued and since retired?  True for a
        well-formed id below the next sequence number that is not held:
        the daemon holds every job it issued until the job retires."""
        seq = job_seq(job_id)
        return seq is not None and seq < self._seq and job_id not in self.jobs

    def _release_slot(self, tenant: str) -> None:
        self._busy = max(0, self._busy - 1)
        remaining = self._active.get(tenant, 1) - 1
        if remaining > 0:
            self._active[tenant] = remaining
        else:
            self._active.pop(tenant, None)
        if self._wake is not None:
            self._wake.set()

    # -- observation ---------------------------------------------------

    def _refresh_gauges(self) -> None:
        self.metrics.queue_depth = len(self.queue)
        self.metrics.inflight = self._busy
        self.metrics.draining = self.draining
        self.metrics.breaker_state = self.breaker.state
        self.metrics.breaker_trips_total = self.breaker.trips_total
        self.metrics.journal_write_failures = self.journal.stats.write_failures
        self.metrics.journal_corrupt_entries = self.journal.stats.corrupt_entries
        self.metrics.uptime_seconds = time.monotonic() - self._started_mono

    def healthz(self) -> dict[str, Any]:
        """Liveness: the process and its dispatcher are running."""
        dispatcher_ok = (
            self._dispatcher is not None
            and (not self._dispatcher.done() or self.draining)
        )
        return {
            "ok": bool(dispatcher_ok),
            "pid": os.getpid(),
            "uptime_seconds": round(time.monotonic() - self._started_mono, 3),
            "draining": self.draining,
        }

    def readyz(self) -> tuple[bool, dict[str, Any]]:
        """Readiness: would a submission be admitted right now?"""
        self._refresh_gauges()
        blockers = []
        if self.draining:
            blockers.append("draining")
        if self.breaker.state == OPEN and self.breaker.retry_after() > 0:
            blockers.append("breaker-open")
        if self.queue.saturated:
            blockers.append("queue-full")
        ready = not blockers
        return ready, {
            "ready": ready,
            "blockers": blockers,
            "queue": {"depth": len(self.queue), "capacity": self.queue.depth},
            "inflight": self._busy,
            "breaker": self.breaker.snapshot(),
            "draining": self.draining,
        }

    def prometheus(self) -> str:
        self._refresh_gauges()
        return serve_prometheus_text(self.metrics)

    def job_summaries(self) -> list[dict[str, Any]]:
        return [
            job.summary()
            for job in sorted(self.jobs.values(), key=lambda j: j.seq)
        ]

    # -- change notification -------------------------------------------

    def _notify(self) -> None:
        if self._wake is not None:
            self._wake.set()
        if self._update is not None:
            event = self._update
            self._update = asyncio.Event()
            event.set()

    async def updated(self, timeout: float) -> bool:
        """Await the next job-state transition; False on timeout."""
        if self._update is None:
            return False
        event = self._update
        try:
            await asyncio.wait_for(event.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            return False
        return True
