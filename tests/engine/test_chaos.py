"""Crash/chaos harness: real ``repro check`` subprocesses, killed and
failed at injected sync points mid-write (docs/robustness.md).

The recovery contract under test: whatever a crash leaves behind —
orphaned temp files, torn entries, a half-persisted state — a restarted
run must produce the byte-identical report a pristine cold run would,
with zero corrupt entries surviving a full-store audit.
"""

import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine.cache import InferenceCache
from repro.engine.state import load_state, state_path

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
MODULE = str(Path(__file__).resolve().parents[2] / "examples" / "greenhouse_monitor.py")

SIGKILLED = -signal.SIGKILL if hasattr(signal, "SIGKILL") else 117


def run_check(cache_dir, *, faults=None, timeout=120):
    """One real ``repro check --cache --incremental`` subprocess."""
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC_DIR}
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    return subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "check", MODULE,
            "--cache", "--cache-dir", str(cache_dir), "--incremental",
        ],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def audit(cache_dir):
    """Full-store checksum audit; returns total corrupt entries."""
    return InferenceCache(cache_dir).verify()["corrupt"]


@pytest.fixture(scope="module")
def cold_reference(tmp_path_factory):
    """The pristine cold run every recovery must reproduce exactly."""
    pristine = tmp_path_factory.mktemp("pristine-cache")
    completed = run_check(pristine)
    assert completed.returncode in (0, 1)
    assert completed.stdout
    return completed


class TestCrashRecovery:
    """SIGKILL at a mid-write sync point, then restart."""

    @pytest.mark.parametrize(
        "sync_point",
        [
            "store-write:sigkill:state:times=1",
            "store-rename:sigkill:state:times=1",
            "store-write:sigkill:class/*:times=1",
            "store-rename:sigkill:class/*:times=1",
        ],
    )
    def test_killed_run_recovers_to_identical_report(
        self, tmp_path, cold_reference, sync_point
    ):
        crashed = run_check(tmp_path, faults=sync_point)
        assert crashed.returncode == SIGKILLED

        # The kill fired after the temp file was written and before (or
        # instead of) the publish — so the wreckage is an orphan, never
        # a corrupt published entry.
        survivor = InferenceCache(tmp_path)
        assert survivor.orphan_count() >= 1
        assert audit(tmp_path) == 0

        restarted = run_check(tmp_path)
        assert restarted.returncode == cold_reference.returncode
        assert restarted.stdout == cold_reference.stdout

        # Post-recovery the store audits clean and the orphans sweep.
        assert audit(tmp_path) == 0
        swept = InferenceCache(tmp_path).gc_tmp()
        assert swept >= 1
        assert InferenceCache(tmp_path).orphan_count() == 0

    def test_repeated_kills_then_recovery(self, tmp_path, cold_reference):
        """Three crashes in a row leave the store recoverable."""
        for sync_point in (
            "store-rename:sigkill:class/*:times=1",
            "store-write:sigkill:class/*:times=1",
            "store-rename:sigkill:state:times=1",
        ):
            crashed = run_check(tmp_path, faults=sync_point)
            assert crashed.returncode == SIGKILLED
        restarted = run_check(tmp_path)
        assert restarted.returncode == cold_reference.returncode
        assert restarted.stdout == cold_reference.stdout
        assert audit(tmp_path) == 0


class TestTornWriteRecovery:
    def test_torn_entry_is_detected_and_healed(self, tmp_path, cold_reference):
        """A torn-but-published entry (the failure rename cannot stop)
        is caught by the seal and healed into one recomputation."""
        torn = run_check(
            tmp_path, faults="store-write:torn:class/*:times=1:arg=40"
        )
        # The writing process is unaffected (its memory layer serves
        # it); only the published bytes are damaged.
        assert torn.returncode == cold_reference.returncode
        assert torn.stdout == cold_reference.stdout
        assert audit(tmp_path) == 1

        healed = run_check(tmp_path)
        assert healed.returncode == cold_reference.returncode
        assert healed.stdout == cold_reference.stdout

        # The restart spliced its verdicts from the state file, so the
        # torn entry was never read (healing is lazy); the eager audit
        # repairs it, after which the store is pristine.
        repaired = InferenceCache(tmp_path).verify(repair=True)
        assert repaired["repaired"] == 1
        assert audit(tmp_path) == 0
        rechecked = run_check(tmp_path)
        assert rechecked.stdout == cold_reference.stdout

    def test_torn_state_file_degrades_to_cold_run(
        self, tmp_path, cold_reference
    ):
        first = run_check(tmp_path, faults="store-write:torn:state:times=1")
        assert first.stdout == cold_reference.stdout
        state, reason = load_state(state_path(tmp_path))
        assert state is None
        assert "corrupt state file" in reason

        recovered = run_check(tmp_path)
        assert recovered.returncode == cold_reference.returncode
        assert recovered.stdout == cold_reference.stdout
        state, reason = load_state(state_path(tmp_path))
        assert reason is None
        assert state.generation >= 1


class TestDegradedPersistence:
    @pytest.mark.parametrize(
        "profile",
        [
            "store-write:enospc:*",
            "store-rename:rename-fail:*",
            "lock-acquire:lock-timeout:*",
        ],
    )
    def test_persistence_failures_never_change_the_report(
        self, tmp_path, cold_reference, profile
    ):
        degraded = run_check(tmp_path, faults=profile)
        assert degraded.returncode == cold_reference.returncode
        assert degraded.stdout == cold_reference.stdout

        # And the next healthy run starts clean from whatever survived.
        recovered = run_check(tmp_path)
        assert recovered.returncode == cold_reference.returncode
        assert recovered.stdout == cold_reference.stdout
        assert audit(tmp_path) == 0

    def test_enospc_warns_about_the_unsaved_state(
        self, tmp_path, cold_reference
    ):
        degraded = run_check(tmp_path, faults="store-write:enospc:*")
        assert "project state not saved" in degraded.stderr
        assert not state_path(tmp_path).exists()


class TestMultiProcessStress:
    def test_four_concurrent_checks_on_one_cache(
        self, tmp_path, cold_reference
    ):
        """N >= 4 processes race put/get and the state read-modify-merge
        on one shared store; every report must be byte-identical to the
        cold reference and the store must audit clean afterwards."""
        env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC_DIR}
        workers = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "check", MODULE,
                    "--cache", "--cache-dir", str(tmp_path), "--incremental",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for _ in range(4)
        ]
        for worker in workers:
            out, err = worker.communicate(timeout=120)
            assert worker.returncode == cold_reference.returncode, err
            assert out == cold_reference.stdout

        assert audit(tmp_path) == 0
        state, reason = load_state(state_path(tmp_path))
        assert reason is None
        assert state.generation >= 1
        assert len(state.classes) == 4

        # A warm follow-up over the merged state still agrees.
        warm = run_check(tmp_path)
        assert warm.returncode == cold_reference.returncode
        assert warm.stdout == cold_reference.stdout
