"""The supervisor: deadlines, budgets, retries, crash recovery."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.checker import Checker, check_parsed_class
from repro.core.limits import BudgetExceeded, Limits
from repro.engine import (
    BatchVerifier,
    EngineAborted,
    InferenceCache,
    parse_faults,
)
from repro.engine import faults
from repro.frontend.parse import parse_module
from repro.ltlf import translate
from repro.paper import SECTION_2_MODULE
from repro.workloads.hierarchy import HierarchyShape, base_class_source, project_source

SHAPE = HierarchyShape(base_operations=4, subsystems=2, seed=13)


def _parse(source):
    return parse_module(source)


def _reference(module, violations):
    return Checker(module, violations).check().format()


def _class_names(module):
    return [parsed.name for parsed in module.classes]


class TestTimeoutQuarantine:
    def test_slow_class_is_quarantined_with_engine_timeout(self):
        module, violations = _parse(project_source(SHAPE, pairs=2))
        faults.install(parse_faults("worker:delay:Controller1:arg=1.0"))
        batch = BatchVerifier(
            module, violations, jobs=2, timeout=0.2, retries=0, backoff=0.0
        ).run()
        assert batch.quarantined() == ("Controller1",)
        report = batch.result_for("Controller1").format()
        assert "ENGINE TIMEOUT" in report
        assert "engine-timeout" in report
        assert batch.metrics.timeouts >= 1
        assert batch.metrics.quarantines == 1
        assert not batch.ok

    def test_healthy_classes_unaffected_by_a_timeout(self):
        module, violations = _parse(project_source(SHAPE, pairs=2, correct=False))
        reference = {
            name: result.format()
            for name, result in zip(
                _class_names(module),
                (
                    Checker(module, violations).check_class(parsed)
                    for parsed in module.classes
                ),
            )
        }
        faults.install(parse_faults("worker:delay:Controller0:arg=1.0"))
        batch = BatchVerifier(
            module, violations, jobs=2, timeout=0.2, retries=0, backoff=0.0
        ).run()
        assert batch.quarantined() == ("Controller0",)
        for name in _class_names(module):
            if name == "Controller0":
                continue
            assert batch.result_for(name).format() == reference[name]


class TestBudgetQuarantine:
    def test_tiny_state_budget_quarantines_every_class(self, no_ambient_faults):
        module, violations = _parse(project_source(SHAPE, pairs=1))
        batch = BatchVerifier(
            module, violations, max_states=1, retries=2, backoff=0.0
        ).run()
        assert set(batch.quarantined()) == set(_class_names(module))
        report = batch.merged().format()
        assert "ENGINE BUDGET" in report
        assert batch.metrics.budget_trips == len(module.classes)
        # Budget failures are deterministic: never retried.
        assert batch.metrics.retries == 0
        for entry in batch.metrics.to_dict()["per_class"]:
            assert entry["quarantined"]

    def test_generous_budget_changes_nothing(self):
        module, violations = _parse(project_source(SHAPE, pairs=2, correct=False))
        batch = BatchVerifier(module, violations, max_states=100_000).run()
        assert batch.quarantined() == ()
        assert batch.merged().format() == _reference(module, violations)


class TestClaimTranslationBudget:
    """A claim's LTLf progression is budgeted like every other step: an
    overflow is a deterministic ``ENGINE BUDGET`` verdict (never retried
    as a crash) and the class deadline bounds it."""

    @staticmethod
    def _claimed(module):
        return [parsed for parsed in module.classes if parsed.claims]

    @staticmethod
    def _trip(parsed, specs, limits):
        """The serial checker's ``BudgetExceeded`` trip."""
        with pytest.raises(BudgetExceeded) as trip:
            check_parsed_class(parsed, specs, limits=limits)
        return trip.value.resource, str(trip.value)

    def test_overflow_is_one_attempt_engine_budget(
        self, monkeypatch, no_ambient_faults
    ):
        monkeypatch.setattr(translate, "MAX_PROGRESSION_STATES", 2)
        module, violations = _parse(SECTION_2_MODULE)
        claimed = self._claimed(module)
        assert claimed
        batch = BatchVerifier(module, violations, retries=2, backoff=0.0).run()
        assert set(batch.quarantined()) == {parsed.name for parsed in claimed}
        assert batch.metrics.retries == 0
        assert batch.metrics.budget_trips == len(claimed)
        specs = Checker(module, violations).specs
        for parsed in claimed:
            report = batch.result_for(parsed.name).format()
            assert "ENGINE BUDGET" in report
            assert "after 1 attempt:" in report
            assert "ENGINE CRASH" not in report
            resource, message = self._trip(parsed, specs, Limits())
            assert resource == "states"
            assert message in report

    def test_tiny_timeout_is_engine_timeout(self, no_ambient_faults):
        module, violations = _parse(SECTION_2_MODULE)
        batch = BatchVerifier(
            module, violations, timeout=1e-9, retries=2, backoff=0.0
        ).run()
        assert set(batch.quarantined()) == set(_class_names(module))
        assert "ENGINE TIMEOUT" in batch.merged().format()
        assert "ENGINE CRASH" not in batch.merged().format()
        specs = Checker(module, violations).specs
        for parsed in self._claimed(module):
            resource, _message = self._trip(parsed, specs, Limits(timeout=1e-9))
            assert resource == "wall-clock"


class TestRetries:
    def test_transient_fault_is_retried_to_success(self):
        module, violations = _parse(project_source(SHAPE, pairs=2))
        faults.install(parse_faults("worker:raise:Device0:times=1"))
        batch = BatchVerifier(
            module, violations, jobs=2, timeout=30.0, retries=2, backoff=0.0
        ).run()
        assert batch.quarantined() == ()
        assert batch.merged().format() == _reference(module, violations)
        assert batch.metrics.retries == 1

    def test_persistent_fault_exhausts_retries_then_quarantines(self):
        module, violations = _parse(project_source(SHAPE, pairs=2))
        faults.install(parse_faults("worker:raise:Device1"))
        batch = BatchVerifier(
            module, violations, retries=2, backoff=0.0
        ).run()
        assert batch.quarantined() == ("Device1",)
        report = batch.result_for("Device1").format()
        assert "ENGINE CRASH" in report
        assert "after 3 attempts" in report
        assert batch.metrics.retries == 2

    def test_thread_worker_kill_is_survivable(self):
        # In thread pools `kill` degrades to WorkerKilled; the supervisor
        # treats it like any crash.
        module, violations = _parse(project_source(SHAPE, pairs=2))
        faults.install(parse_faults("worker:kill:Controller0:times=1"))
        batch = BatchVerifier(
            module, violations, jobs=2, timeout=30.0, retries=1, backoff=0.0
        ).run()
        assert batch.quarantined() == ()
        assert batch.merged().format() == _reference(module, violations)


@pytest.mark.slow
class TestProcessPoolCrashRecovery:
    def test_killed_worker_quarantines_only_the_poison_class(self, monkeypatch):
        module, violations = _parse(project_source(SHAPE, pairs=2, correct=False))
        monkeypatch.setenv(faults.FAULTS_ENV, "worker:kill:Controller1")
        batch = BatchVerifier(
            module,
            violations,
            jobs=2,
            executor="process",
            timeout=60.0,
            retries=1,
            backoff=0.0,
        ).run()
        assert batch.quarantined() == ("Controller1",)
        report = batch.result_for("Controller1").format()
        assert "ENGINE CRASH" in report
        assert "worker process died" in report
        assert batch.metrics.pool_restarts >= 1
        # Healthy classes match the serial checker byte for byte.
        for parsed in module.classes:
            if parsed.name == "Controller1":
                continue
            assert (
                batch.result_for(parsed.name).format()
                == Checker(module, violations).check_class(parsed).format()
            )

    def test_warm_cache_rerun_after_crash_is_byte_identical(
        self, monkeypatch, tmp_path
    ):
        module, violations = _parse(project_source(SHAPE, pairs=2, correct=False))
        reference = BatchVerifier(module, violations).run().merged().format()

        monkeypatch.setenv(faults.FAULTS_ENV, "worker:kill:Device0")
        crashed = BatchVerifier(
            module,
            violations,
            jobs=2,
            executor="process",
            timeout=60.0,
            retries=0,
            backoff=0.0,
            cache=InferenceCache(tmp_path),
        ).run()
        assert crashed.quarantined() == ("Device0",)

        # Faults off, warm cache: healthy verdicts were cached, the
        # quarantined class was not, and the rerun heals it.
        monkeypatch.delenv(faults.FAULTS_ENV)
        healed = BatchVerifier(
            module, violations, cache=InferenceCache(tmp_path)
        ).run()
        assert healed.quarantined() == ()
        assert healed.merged().format() == reference
        assert healed.metrics.class_misses == 1  # only Device0 re-checked


#: Holds every module-level lock of the loaded ``repro`` modules, and
#: the installed fault plan's, in another thread while a claim-bearing
#: module is checked on forked workers; prints the held locks' names.
_LOCKS_HELD_AT_FORK = """
import sys, threading
from repro.engine import BatchVerifier, faults
from repro.frontend.parse import parse_module
from repro.workloads.hierarchy import HierarchyShape, lifecycle_claim, module_source

shape = HierarchyShape(base_operations=4, subsystems=2, seed=13)
module, violations = parse_module(module_source(shape, claim=lifecycle_claim(shape)))
faults.install(faults.parse_faults("worker:delay:*:arg=0"))
held = {
    f"{name}.{attribute}": value
    for name, loaded in list(sys.modules.items())
    if name.split(".")[0] == "repro"
    for attribute, value in vars(loaded).items()
    if isinstance(value, type(threading.Lock()))
}
held["installed plan"] = faults.active_plan()._lock
taken, release = threading.Event(), threading.Event()

def hold():
    for lock in held.values():
        lock.acquire()
    taken.set()
    release.wait()
    for lock in held.values():
        lock.release()

threading.Thread(target=hold).start()
taken.wait()
batch = BatchVerifier(
    module, violations, jobs=2, executor="process", timeout=3, retries=0
).run()
release.set()
assert batch.quarantined() == (), batch.merged().format()
print(sorted(held))
"""


@pytest.mark.slow
class TestForkSafety:
    def test_locks_held_by_other_threads_at_fork_do_not_hang_workers(self):
        """A forked worker inherits the parent's locks in whatever state
        other threads left them; it must not wait on one forever."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        # A hung worker keeps the interpreter from exiting: bound the
        # run, and kill the whole process group, workers included.
        process = subprocess.Popen(
            [sys.executable, "-c", _LOCKS_HELD_AT_FORK],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("a forked worker hung on a lock held at the fork")
        assert process.returncode == 0, stderr
        assert "repro.engine.faults._state_lock" in stdout
        assert "repro.ltlf.translate._negations_lock" in stdout


@pytest.fixture
def pools_made(monkeypatch):
    """The widths of the pools ``BatchVerifier`` makes, in order."""
    made = []
    make = BatchVerifier._make_pool

    def counting(self, width):
        made.append(width)
        return make(self, width)

    monkeypatch.setattr(BatchVerifier, "_make_pool", counting)
    return made


class TestOnePoolPerRun:
    @pytest.mark.slow
    def test_a_two_wave_process_run_forks_one_pool(self, pools_made):
        module, violations = _parse(project_source(SHAPE, pairs=3))
        batch = BatchVerifier(module, violations, jobs=2, executor="process").run()
        assert batch.metrics.waves == 2
        assert pools_made == [3]  # the widest wave; min(jobs, 3) workers
        assert batch.merged().format() == _reference(module, violations)

    def test_an_overrun_replaces_the_pool(self, pools_made):
        # One wave.  The abandoned worker keeps its slot, so the retry
        # runs on a fresh pool.
        module, violations = _parse(
            base_class_source("Left", 3) + "\n\n" + base_class_source("Right", 3)
        )
        faults.install(parse_faults("worker:delay:Left:arg=1.0:times=1"))
        batch = BatchVerifier(
            module, violations, jobs=2, timeout=0.2, retries=1, backoff=0.0
        ).run()
        assert batch.metrics.waves == 1
        assert batch.quarantined() == ()
        assert batch.merged().format() == _reference(module, violations)
        assert pools_made == [2, 2]
        assert (batch.metrics.timeouts, batch.metrics.pool_restarts) == (1, 0)

    def test_an_inline_run_makes_no_pool(self, pools_made):
        module, violations = _parse(project_source(SHAPE, pairs=2))
        BatchVerifier(module, violations).run()
        assert pools_made == []


class TestFailFast:
    def test_fail_fast_raises_engine_aborted(self):
        module, violations = _parse(project_source(SHAPE, pairs=2))
        faults.install(parse_faults("worker:raise:Device0"))
        with pytest.raises(EngineAborted) as excinfo:
            BatchVerifier(
                module, violations, retries=0, backoff=0.0, fail_fast=True
            ).run()
        assert excinfo.value.class_name == "Device0"
        assert "fail-fast" in str(excinfo.value)

    def test_keep_going_is_the_default(self):
        module, violations = _parse(project_source(SHAPE, pairs=2))
        faults.install(parse_faults("worker:raise:Device0"))
        batch = BatchVerifier(module, violations, retries=0, backoff=0.0).run()
        assert batch.quarantined() == ("Device0",)


class TestValidation:
    def test_rejects_bad_supervisor_parameters(self):
        module, violations = _parse(project_source(SHAPE, pairs=1))
        from repro.engine import EngineError

        with pytest.raises(EngineError):
            BatchVerifier(module, violations, timeout=0)
        with pytest.raises(EngineError):
            BatchVerifier(module, violations, retries=-1)
        with pytest.raises(EngineError):
            BatchVerifier(module, violations, backoff=-0.1)

    def test_quarantined_classes_are_never_cached(self):
        module, violations = _parse(project_source(SHAPE, pairs=1))
        cache = InferenceCache(None)
        faults.install(parse_faults("worker:raise:*"))
        first = BatchVerifier(
            module, violations, retries=0, backoff=0.0, cache=cache
        ).run()
        assert set(first.quarantined()) == set(_class_names(module))
        assert cache.stats.writes == 0
        faults.install(None)
        second = BatchVerifier(module, violations, cache=cache).run()
        assert second.quarantined() == ()
        assert second.metrics.class_hits == 0  # nothing poisoned the cache
