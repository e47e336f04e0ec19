"""In-process service tests: admission, fairness, deadlines, retries,
the circuit breaker, recovery and drain — no HTTP, no subprocesses.

The overload/fairness acceptance test for the PR lives here: queue
capacity K, 3×K concurrent submissions across 3 tenants → every excess
submission is shed *explicitly* (structured reason + retry-after), every
accepted job completes within its deadline bound, and per-tenant
completion counts come out exactly even.
"""

import asyncio
import time

import pytest

from repro.engine import faults
from repro.serve.breaker import OPEN
from repro.serve.config import ServeConfig
from repro.serve.jobs import DONE, FAILED, KIND_CRASH, KIND_DEADLINE
from repro.serve.queue import AdmissionError
from repro.serve.service import VerificationService
from repro.workloads.hierarchy import HierarchyShape, module_source

SOURCE = module_source(HierarchyShape(base_operations=2, subsystems=1))
FILES = {"module.py": SOURCE}


@pytest.fixture(autouse=True)
def clean_fault_plan():
    faults.install(None)
    yield
    faults.install(None)


def config_for(tmp_path, **overrides):
    defaults = dict(
        cache_dir=str(tmp_path / "cache"),
        queue_depth=8,
        workers=2,
        job_deadline=60.0,
        breaker_backoff=0.2,
        drain_grace=10.0,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


async def wait_terminal(service, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = service.jobs[job_id]
        if job.terminal:
            return job
        await service.updated(0.2)
    raise AssertionError(f"job {job_id} not terminal: {service.jobs[job_id]}")


class TestHappyPath:
    def test_submit_execute_report(self, tmp_path):
        async def scenario():
            service = VerificationService(config_for(tmp_path))
            await service.start()
            try:
                job = service.submit("alice", FILES)
                assert job.state == "queued"
                done = await wait_terminal(service, job.id)
                assert done.state == DONE
                assert done.ok is True
                assert done.classes == 2
                assert done.report
                assert done.seconds <= done.deadline
            finally:
                await service.drain()
            assert service.metrics.jobs_done_total == 1
            assert service.metrics.tenant_completed == {"alice": 1}
            # The daemon's verdict is byte-identical to the batch engine
            # over the same spool (same engine, same cache).
            from repro.engine.engine import verify_path

            target = service.journal.check_target(done)
            assert done.report == verify_path(str(target)).merged().format()

        asyncio.run(scenario())

    def test_prometheus_exposition_carries_the_serve_family(self, tmp_path):
        async def scenario():
            service = VerificationService(config_for(tmp_path))
            await service.start()
            try:
                job = service.submit("alice", FILES)
                await wait_terminal(service, job.id)
            finally:
                await service.drain()
            text = service.prometheus()
            assert 'repro_serve_jobs_total{state="done"} 1' in text
            assert 'repro_serve_tenant_completed_total{tenant="alice"} 1' in text
            assert "repro_serve_breaker_state" in text
            assert text.endswith("\n")

        asyncio.run(scenario())


class TestOverloadAndFairness:
    """The PR's overload acceptance scenario."""

    def test_3k_submissions_shed_explicitly_and_complete_fairly(self, tmp_path):
        K = 6
        tenants = ("alice", "bob", "carol")
        config = config_for(
            tmp_path,
            queue_depth=K,
            tenant_queue_cap=K // len(tenants),
            tenant_concurrency=1,
            workers=2,
        )

        async def scenario():
            service = VerificationService(config)
            accepted, rejected = [], []
            # Burst before the dispatcher starts: the daemon equivalent
            # of 3×K submissions racing in faster than jobs drain.  Each
            # tenant fires its whole burst at once, so the early tenants
            # hit their per-tenant cap and the last one the global bound.
            for tenant in tenants:
                for round_ in range(2 * len(tenants)):
                    try:
                        accepted.append(
                            service.submit(
                                tenant,
                                {"module.py": SOURCE + f"\n# round {round_}\n"},
                            )
                        )
                    except AdmissionError as error:
                        rejected.append((tenant, error))
            assert len(accepted) + len(rejected) == 3 * K
            # Exactly K admitted — the queue bound held.
            assert len(accepted) == K
            # Every rejection is explicit and machine-readable.
            for _tenant, error in rejected:
                assert error.reason in ("queue-full", "tenant-limit")
                assert error.retry_after > 0
            reasons = {error.reason for _t, error in rejected}
            assert reasons == {"queue-full", "tenant-limit"}
            assert service.metrics.submissions_total == 3 * K
            assert sum(service.metrics.rejections.values()) == len(rejected)

            await service.start()
            for job in accepted:
                done = await wait_terminal(service, job.id)
                assert done.state == DONE
                # No accepted job ran past its deadline bound.
                assert done.seconds <= config.job_deadline
            await service.drain()

            # Fairness: every tenant completed the same number of jobs.
            completed = service.metrics.tenant_completed
            assert completed == {tenant: K // len(tenants) for tenant in tenants}

        asyncio.run(scenario())

    def test_draining_rejects_with_explicit_reason(self, tmp_path):
        async def scenario():
            service = VerificationService(config_for(tmp_path))
            await service.start()
            await service.drain()
            with pytest.raises(AdmissionError) as excinfo:
                service.submit("alice", FILES)
            assert excinfo.value.reason == "draining"

        asyncio.run(scenario())


class TestDeadlines:
    def test_job_deadline_fails_the_job_with_kind_deadline(self, tmp_path):
        # A dispatch-side stall the per-class supervisor cannot see:
        # only the job-level backstop can catch it.
        faults.install(faults.parse_faults("serve-dispatch:delay:*:arg=3"))
        config = config_for(tmp_path, job_deadline=0.4, workers=1)

        async def scenario():
            service = VerificationService(config)
            await service.start()
            try:
                job = service.submit("alice", FILES)
                failed = await wait_terminal(service, job.id)
                assert failed.state == FAILED
                assert failed.kind == KIND_DEADLINE
                assert "deadline" in failed.error
            finally:
                await service.drain()

        asyncio.run(scenario())

    def test_class_timeout_defaults_to_the_job_deadline(self, tmp_path):
        config = config_for(tmp_path, job_deadline=7.5)
        assert config.effective_class_timeout == 7.5
        assert config_for(
            tmp_path, job_deadline=7.5, class_timeout=1.0
        ).effective_class_timeout == 1.0


class TestCrashesAndTheBreaker:
    def test_crash_retries_then_succeeds(self, tmp_path):
        faults.install(
            faults.parse_faults("serve-dispatch:raise:*:times=1")
        )
        config = config_for(tmp_path, job_retries=1)

        async def scenario():
            service = VerificationService(config)
            await service.start()
            try:
                job = service.submit("alice", FILES)
                done = await wait_terminal(service, job.id)
                assert done.state == DONE
                assert done.attempts == 2
            finally:
                await service.drain()
            assert service.metrics.retries_total == 1
            # One crash is not a pattern: the breaker stayed closed.
            assert service.breaker.state == "closed"

        asyncio.run(scenario())

    def test_exhausted_retries_fail_with_kind_crash(self, tmp_path):
        faults.install(faults.parse_faults("serve-dispatch:raise:*"))
        config = config_for(tmp_path, job_retries=1, breaker_threshold=10)

        async def scenario():
            service = VerificationService(config)
            await service.start()
            try:
                job = service.submit("alice", FILES)
                failed = await wait_terminal(service, job.id)
                assert failed.state == FAILED
                assert failed.kind == KIND_CRASH
                assert failed.attempts == 2
                assert "InjectedFault" in failed.error
            finally:
                await service.drain()

        asyncio.run(scenario())

    def test_repeated_crashes_trip_the_breaker_then_recover(self, tmp_path):
        faults.install(faults.parse_faults("serve-dispatch:raise:*:times=2"))
        config = config_for(
            tmp_path,
            job_retries=0,
            breaker_threshold=2,
            breaker_backoff=0.2,
            breaker_max_backoff=0.2,
        )

        async def scenario():
            service = VerificationService(config)
            await service.start()
            try:
                first = service.submit("alice", FILES)
                second = service.submit("bob", FILES)
                await wait_terminal(service, first.id)
                await wait_terminal(service, second.id)
                assert service.breaker.state == OPEN
                # While open, admission sheds with the breaker reason and
                # a retry-after bounded by the deterministic backoff.
                with pytest.raises(AdmissionError) as excinfo:
                    service.submit("carol", FILES)
                assert excinfo.value.reason == "breaker-open"
                assert 0 < excinfo.value.retry_after <= 0.2
                ready, detail = service.readyz()
                assert not ready and "breaker-open" in detail["blockers"]
                # After the backoff the half-open probe (faults now
                # exhausted) succeeds and the breaker closes.
                await asyncio.sleep(0.25)
                probe = service.submit("carol", FILES)
                done = await wait_terminal(service, probe.id)
                assert done.state == DONE
                assert service.breaker.state == "closed"
                assert service.metrics.breaker_trips_total >= 1
            finally:
                await service.drain()

        asyncio.run(scenario())


class TestRecovery:
    def test_queued_jobs_survive_a_cold_restart(self, tmp_path):
        config = config_for(tmp_path)

        async def before():
            # First daemon: journal two jobs but never start a dispatcher
            # (the moral equivalent of SIGKILL before dispatch).
            service = VerificationService(config)
            service.submit("alice", FILES)
            service.submit("bob", FILES)
            return [job.id for job in service.jobs.values()]

        async def after(ids):
            service = VerificationService(config)
            recovered = await service.start()
            assert recovered == 2
            assert service.metrics.recovered_jobs_total == 2
            try:
                for job_id in ids:
                    done = await wait_terminal(service, job_id)
                    assert done.state == DONE
                    assert done.recovered == 1
            finally:
                await service.drain()

        ids = asyncio.run(before())
        asyncio.run(after(ids))

    def test_lost_spool_fails_cleanly_on_recovery(self, tmp_path):
        import shutil

        config = config_for(tmp_path)

        async def before():
            service = VerificationService(config)
            return service.submit("alice", FILES).id

        job_id = asyncio.run(before())
        shutil.rmtree(config.serve_root / "spool" / job_id)

        async def after():
            service = VerificationService(config)
            await service.start()
            try:
                job = service.jobs[job_id]
                assert job.state == FAILED
                assert job.kind == "lost-spool"
            finally:
                await service.drain()

        asyncio.run(after())

    def test_drain_checkpoints_the_queue(self, tmp_path):
        config = config_for(tmp_path)

        async def scenario():
            service = VerificationService(config)
            # No dispatcher: both jobs stay queued, journaled as such.
            service.submit("alice", FILES)
            service.submit("bob", FILES)
            await service.start()
            summary = await service.drain()
            assert summary["abandoned_inflight"] == 0
            return summary

        summary = asyncio.run(scenario())
        # Whatever did not run is still journaled for the next start.
        fresh = VerificationService(config_for(tmp_path))
        loaded = fresh.journal.load_all()
        assert summary["completed"] + len(
            [job for job in loaded if not job.terminal]
        ) == 2

    def test_start_sweeps_old_cache_orphans_and_spares_young_ones(self, tmp_path):
        """Crashed writers' temp files go at daemon start, not when the
        cache is opened; a young one may belong to a live writer."""
        import os

        from repro.engine import store

        config = config_for(tmp_path)
        service = VerificationService(config)
        entries = tmp_path / "cache" / "class" / "ab"
        entries.mkdir(parents=True)
        old = entries / f"{store.TMP_PREFIX}crashed.json"
        young = entries / f"{store.TMP_PREFIX}live.json"
        for orphan in (old, young):
            orphan.write_text("debris", encoding="utf-8")
        stamp = old.stat().st_mtime - 2 * store.DEFAULT_TMP_GC_MIN_AGE
        os.utime(old, (stamp, stamp))
        assert service.cache.orphan_count() == 2

        async def scenario():
            await service.start()
            await service.drain()

        asyncio.run(scenario())
        assert not old.exists()
        assert young.exists()
        assert service.cache.stats.orphans_removed == 1
