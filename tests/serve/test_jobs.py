"""Job model and the crash-safe journal (repro.serve.jobs)."""

import json

import pytest

from repro.engine import faults
from repro.serve.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobError,
    JobJournal,
    make_job,
    requeued,
)

FILES = {"device.py": "# source\n"}


class TestMakeJob:
    def test_id_is_sequenced_and_content_addressed(self):
        job_a, _ = make_job(1, "alice", FILES, deadline=10.0, now=0.0)
        job_b, _ = make_job(2, "alice", FILES, deadline=10.0, now=0.0)
        assert job_a.id.startswith("j000001-")
        assert job_b.id.startswith("j000002-")
        # Same tenant + sources → same digest suffix; ids still unique.
        assert job_a.id.split("-")[1] == job_b.id.split("-")[1]
        other, _ = make_job(3, "bob", FILES, deadline=10.0, now=0.0)
        assert other.id.split("-")[1] != job_a.id.split("-")[1]

    @pytest.mark.parametrize(
        "files",
        [
            {},
            {"no_extension": "x"},
            {"sub/dir.py": "x"},
            {"..\\windows.py": "x"},
            {".hidden.py": "x"},
            {"module.py": 7},
        ],
    )
    def test_bad_submissions_raise(self, files):
        with pytest.raises(JobError):
            make_job(1, "t", files, deadline=10.0, now=0.0)

    def test_roundtrip_through_dict(self):
        job, _ = make_job(5, "t", FILES, deadline=3.5, now=1.0)
        assert Job.from_dict(job.to_dict()) == job
        assert Job.from_dict({"id": "x"}) is None
        assert Job.from_dict("not a dict") is None
        bad_state = dict(job.to_dict(), state="exploded")
        assert Job.from_dict(bad_state) is None


class TestJournal:
    def record_one(self, tmp_path, state=QUEUED):
        journal = JobJournal(tmp_path / "serve")
        job, files = make_job(1, "t", FILES, deadline=10.0, now=0.0)
        if state != QUEUED:
            from dataclasses import replace

            job = replace(job, state=state)
        journal.write_spool(job, files)
        assert journal.record(job)
        return journal, job

    def test_record_then_load_roundtrip(self, tmp_path):
        journal, job = self.record_one(tmp_path)
        fresh = JobJournal(tmp_path / "serve")
        assert fresh.load_all() == [job]
        assert fresh.stats.corrupt_entries == 0

    def test_spool_target_single_file(self, tmp_path):
        journal, job = self.record_one(tmp_path)
        target = journal.check_target(job)
        assert target is not None and target.name == "device.py"

    def test_spool_target_multi_file_is_the_directory(self, tmp_path):
        journal = JobJournal(tmp_path / "serve")
        job, files = make_job(
            1, "t", {"a.py": "#\n", "b.py": "#\n"}, deadline=10.0, now=0.0
        )
        journal.write_spool(job, files)
        target = journal.check_target(job)
        assert target == journal.spool_path(job.id)

    def test_lost_spool_is_detected(self, tmp_path):
        journal, job = self.record_one(tmp_path)
        (journal.spool_path(job.id) / "device.py").unlink()
        assert journal.check_target(job) is None

    def test_corrupt_record_is_skipped_not_fatal(self, tmp_path):
        journal, job = self.record_one(tmp_path)
        # A torn write: valid JSON prefix destroyed.
        path = journal.path(job.id)
        path.write_text(path.read_text()[: 40], encoding="utf-8")
        fresh = JobJournal(tmp_path / "serve")
        assert fresh.load_all() == []
        assert fresh.stats.corrupt_entries == 1

    def test_tampered_seal_is_rejected(self, tmp_path):
        journal, job = self.record_one(tmp_path)
        path = journal.path(job.id)
        envelope = json.loads(path.read_text())
        envelope["job"]["tenant"] = "mallory"
        path.write_text(json.dumps(envelope), encoding="utf-8")
        fresh = JobJournal(tmp_path / "serve")
        assert fresh.load_all() == []
        assert fresh.stats.corrupt_entries == 1

    def test_write_failure_is_counted_never_raised(self, tmp_path):
        journal = JobJournal(tmp_path / "serve")
        job, files = make_job(1, "t", FILES, deadline=10.0, now=0.0)
        faults.install(faults.parse_faults("store-write:enospc:serve-job/*"))
        try:
            for _attempt in range(3):
                assert journal.record(job) is False
        finally:
            faults.install(None)
        assert journal.stats.write_failures == 3
        # Counts only: a daemon on a full disk must not grow per failure.
        assert all(isinstance(value, int) for value in vars(journal.stats).values())
        assert journal.load_all() == []

    def test_next_seq_continues_after_the_max(self, tmp_path):
        journal = JobJournal(tmp_path / "serve")
        jobs = []
        for seq in (3, 7, 5):
            job, files = make_job(seq, "t", FILES, deadline=10.0, now=0.0)
            journal.write_spool(job, files)
            journal.record(job)
            jobs.append(job)
        loaded = JobJournal(tmp_path / "serve").load_all()
        assert [job.seq for job in loaded] == [3, 5, 7]
        assert journal.next_seq(loaded) == 8

    def test_requeued_marks_recovery(self):
        from dataclasses import replace

        job, _ = make_job(1, "t", FILES, deadline=10.0, now=0.0)
        running = replace(job, state=RUNNING, started_at=5.0, attempts=1)
        fresh = requeued(running)
        assert fresh.state == QUEUED
        assert fresh.started_at is None
        assert fresh.recovered == 1
        assert fresh.attempts == 1  # attempts survive: the budget is global

    def test_terminal_states(self):
        job, _ = make_job(1, "t", FILES, deadline=10.0, now=0.0)
        from dataclasses import replace

        assert not job.terminal
        assert replace(job, state=DONE).terminal
        assert replace(job, state=FAILED).terminal
