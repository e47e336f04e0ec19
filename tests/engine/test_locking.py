"""The portable advisory file lock (repro.engine.locking).

Cross-process exclusion is exercised with real subprocesses at the
bottom of the file; everything above uses the cheaper in-process
property that two ``FileLock`` instances conflict (``fcntl`` locks are
per open file description, not per process).
"""

import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.engine import faults
from repro.engine.cache import InferenceCache
from repro.engine.locking import FileLock, LockTimeout, lock_for

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


class TestAcquireRelease:
    def test_basic_cycle_creates_the_lock_file(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        assert not lock.held
        lock.acquire()
        assert lock.held
        assert (tmp_path / "x.lock").exists()
        lock.release()
        assert not lock.held
        # The lock file intentionally stays (deleting it is racy).
        assert (tmp_path / "x.lock").exists()

    def test_context_manager(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        with lock:
            assert lock.held
        assert not lock.held

    def test_reacquirable_after_release(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        for _ in range(3):
            with lock:
                assert lock.held

    def test_parent_directory_is_created(self, tmp_path):
        with FileLock(tmp_path / "deep" / "down" / "x.lock"):
            pass

    def test_name_defaults_to_stem(self, tmp_path):
        assert FileLock(tmp_path / "method.lock").name == "method"
        assert FileLock(tmp_path / "x.lock", name="explicit").name == "explicit"

    def test_lock_for_is_beside_the_target(self, tmp_path):
        lock = lock_for(tmp_path / "state.json")
        assert lock.path == tmp_path / "state.json.lock"

    def test_holder_pid_written_as_diagnostic(self, tmp_path):
        import os

        lock = FileLock(tmp_path / "x.lock")
        with lock:
            content = (tmp_path / "x.lock").read_text(encoding="ascii")
            assert content.strip() == str(os.getpid())


class TestReentrancy:
    def test_depth_counted_and_released_symmetrically(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        lock.acquire()
        lock.acquire()
        assert lock.held
        lock.release()
        assert lock.held  # still one level down
        lock.release()
        assert not lock.held

    def test_release_without_acquire_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="not held"):
            FileLock(tmp_path / "x.lock").release()

    def test_release_from_other_thread_raises(self, tmp_path):
        lock = FileLock(tmp_path / "x.lock")
        lock.acquire()
        errors = []

        def rogue():
            try:
                lock.release()
            except RuntimeError as error:
                errors.append(error)

        thread = threading.Thread(target=rogue)
        thread.start()
        thread.join()
        assert len(errors) == 1
        lock.release()


class TestTimeout:
    def test_contended_lock_times_out(self, tmp_path):
        holder = FileLock(tmp_path / "x.lock")
        holder.acquire()
        try:
            waiter = FileLock(tmp_path / "x.lock", timeout=0.05)
            with pytest.raises(LockTimeout) as excinfo:
                waiter.acquire()
            assert excinfo.value.waited >= 0.05
            assert not waiter.held
        finally:
            holder.release()
        # Once the holder lets go, the same instance succeeds.
        waiter.acquire()
        waiter.release()

    def test_per_call_timeout_overrides_instance_default(self, tmp_path):
        holder = FileLock(tmp_path / "x.lock")
        holder.acquire()
        try:
            waiter = FileLock(tmp_path / "x.lock", timeout=60.0)
            with pytest.raises(LockTimeout):
                waiter.acquire(timeout=0.05)
        finally:
            holder.release()

    def test_stale_lock_file_is_immediately_acquirable(self, tmp_path):
        """A lock *file* left by a dead process holds no OS lock."""
        (tmp_path / "x.lock").write_text("99999\n", encoding="ascii")
        lock = FileLock(tmp_path / "x.lock", timeout=0.5)
        lock.acquire()
        assert lock.held
        lock.release()

    def test_injected_lock_timeout_forces_the_timed_out_path(self, tmp_path):
        faults.install(faults.parse_faults("lock-acquire:lock-timeout:chaos"))
        lock = FileLock(tmp_path / "x.lock", name="chaos", timeout=60.0)
        with pytest.raises(LockTimeout):
            lock.acquire()
        assert not lock.held
        faults.install(None)
        with lock:
            assert lock.held


class TestCrossProcess:
    """Real two-process exclusion and the shared-cache stress test
    from docs/robustness.md (satellite: two-process put/get stress)."""

    def _run(self, code, *argv, timeout=60):
        return subprocess.run(
            [sys.executable, "-c", code, *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC_DIR},
        )

    def test_lock_excludes_across_processes(self, tmp_path):
        """A child that holds the lock forces the parent to time out;
        after the child exits, acquisition succeeds instantly."""
        script = """
import sys, time
from repro.engine.locking import FileLock

lock = FileLock(sys.argv[1])
lock.acquire()
print("locked", flush=True)
time.sleep(float(sys.argv[2]))
lock.release()
"""
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "x.lock"), "2.0"],
            stdout=subprocess.PIPE,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC_DIR},
        )
        try:
            assert child.stdout.readline().strip() == "locked"
            mine = FileLock(tmp_path / "x.lock", timeout=0.1)
            with pytest.raises(LockTimeout):
                mine.acquire()
        finally:
            child.wait(timeout=30)
        mine.acquire(timeout=10.0)
        mine.release()

    def test_two_process_put_get_stress(self, tmp_path):
        """Two writers hammer one cache with overlapping keys; every
        surviving entry must be intact and correct (content-addressed
        writes make the rename race benign by construction)."""
        script = """
import sys
from repro.engine.cache import InferenceCache

root, worker = sys.argv[1], int(sys.argv[2])
cache = InferenceCache(root)
for round_ in range(20):
    for k in range(8):
        key = f"{'deadbeef'}{k:02d}"
        cache.put(key, {"key": key, "round_invariant": k})
        got = cache.get(key)
        assert got is not None and got["round_invariant"] == k, got
print("done", cache.stats.write_failures)
"""
        root = tmp_path / "shared-cache"
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(root), str(index)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC_DIR},
            )
            for index in range(2)
        ]
        for worker in workers:
            out, err = worker.communicate(timeout=120)
            assert worker.returncode == 0, err
            assert out.startswith("done")

        survivor = InferenceCache(root)
        audit = survivor.verify()
        assert audit["corrupt"] == 0
        assert audit["ok"] == 8
        for k in range(8):
            key = f"deadbeef{k:02d}"
            assert survivor.get(key) == {
                "key": key,
                "round_invariant": k,
            }
