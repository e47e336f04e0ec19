"""Job model and the crash-safe job journal of the verification daemon.

A submitted project becomes a :class:`Job`: the sources land in a
per-job **spool** directory (``<cache>/serve/spool/<id>/``) and the
job's lifecycle record in the **journal**
(``<cache>/serve/jobs/<id>.json``), a sealed envelope written through
:func:`repro.engine.store.atomic_write_text` — the same checksummed,
atomic, fault-injectable path the inference cache uses.  Because the
journal entry is persisted *before* the job is dispatched, a daemon
killed at any point (SIGKILL included) restarts with the full queue
intact: :meth:`JobJournal.load_all` returns every job, and the service
re-enqueues the non-terminal ones.  Verdicts are pure functions of the
spooled sources (plus the shared content-addressed cache), so a
re-executed job serves byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.engine import store

#: Journal payload shape; bump on change so stale entries are skipped.
JOURNAL_VERSION = 1

# Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: States a restarted daemon does *not* re-enqueue.
TERMINAL_STATES = frozenset({DONE, FAILED})

# Failure kinds (the ``kind`` field of a FAILED job).
KIND_CRASH = "crash"
KIND_DEADLINE = "deadline"
KIND_INVALID = "invalid-input"
KIND_LOST_SPOOL = "lost-spool"


#: A job id as :func:`make_job` issues it: ``j<seq>-<10 hex digits>``.
_JOB_ID = re.compile(r"j(\d{6,})-[0-9a-f]{10}")


class JobError(ValueError):
    """Raised on an invalid job payload (bad filenames, empty project)."""


def _validate_files(files: dict[str, str]) -> dict[str, str]:
    if not files:
        raise JobError("a submission needs at least one source file")
    for name, text in files.items():
        if not isinstance(name, str) or not isinstance(text, str):
            raise JobError("files must map filename strings to source strings")
        if (
            not name.endswith(".py")
            or "/" in name
            or "\\" in name
            or name.startswith(".")
            or name in ("", ".py")
        ):
            raise JobError(
                f"bad source filename {name!r} (want a plain '<name>.py')"
            )
    return dict(files)


@dataclass(frozen=True)
class Job:
    """One verification job working its way through the daemon."""

    id: str
    tenant: str
    seq: int
    #: Source filenames in the spool, sorted (contents live on disk).
    files: tuple[str, ...]
    #: Wall-clock execution budget in seconds.
    deadline: float
    state: str = QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: Executions attempted (crash retries increment it).
    attempts: int = 0
    #: Times a restarted daemon re-enqueued this job.
    recovered: int = 0
    ok: bool | None = None
    #: The merged verification report (``CheckResult.format()``), once done.
    report: str | None = None
    #: Failure kind + message for FAILED jobs.
    kind: str | None = None
    error: str | None = None
    classes: int = 0
    seconds: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "tenant": self.tenant,
            "seq": self.seq,
            "files": list(self.files),
            "deadline": self.deadline,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "recovered": self.recovered,
            "ok": self.ok,
            "report": self.report,
            "kind": self.kind,
            "error": self.error,
            "classes": self.classes,
            "seconds": self.seconds,
        }

    def summary(self) -> dict[str, Any]:
        """The status dict served over HTTP (report included when done)."""
        return self.to_dict()

    @staticmethod
    def from_dict(data: Any) -> "Job | None":
        """Rebuild a journaled job; ``None`` on a malformed record."""
        if not isinstance(data, dict):
            return None
        try:
            job = Job(
                id=str(data["id"]),
                tenant=str(data["tenant"]),
                seq=int(data["seq"]),
                files=tuple(str(name) for name in data["files"]),
                deadline=float(data["deadline"]),
                state=str(data["state"]),
                submitted_at=float(data.get("submitted_at", 0.0)),
                started_at=data.get("started_at"),
                finished_at=data.get("finished_at"),
                attempts=int(data.get("attempts", 0)),
                recovered=int(data.get("recovered", 0)),
                ok=data.get("ok"),
                report=data.get("report"),
                kind=data.get("kind"),
                error=data.get("error"),
                classes=int(data.get("classes", 0)),
                seconds=float(data.get("seconds", 0.0)),
            )
        except (KeyError, TypeError, ValueError):
            return None
        if job.state not in (QUEUED, RUNNING, DONE, FAILED):
            return None
        return job


def make_job(
    seq: int,
    tenant: str,
    files: dict[str, str],
    deadline: float,
    now: float | None = None,
) -> tuple[Job, dict[str, str]]:
    """Build a queued job from a submission; returns (job, validated files).

    The id is ``j<seq>-<digest>``: the sequence number keeps ids unique
    and humanly ordered, the content digest (tenant + sources) makes a
    resubmission of the same project recognizable at a glance.
    """
    validated = _validate_files(files)
    digest = hashlib.sha256(
        store.canonical_bytes({"tenant": tenant, "files": validated})
    ).hexdigest()[:10]
    job = Job(
        id=f"j{seq:06d}-{digest}",
        tenant=tenant,
        seq=seq,
        files=tuple(sorted(validated)),
        deadline=deadline,
        submitted_at=time.time() if now is None else now,
    )
    return job, validated


def job_seq(job_id: str) -> int | None:
    """The sequence number of a well-formed job id, else ``None``."""
    match = _JOB_ID.fullmatch(job_id)
    return None if match is None else int(match.group(1))


# ----------------------------------------------------------------------
# Persistence: spool + journal
# ----------------------------------------------------------------------

@dataclass
class JournalStats:
    """Counters of the journal's degraded paths (all zero when healthy)."""

    write_failures: int = 0
    corrupt_entries: int = 0
    recovered_jobs: int = 0
    loaded_jobs: int = 0


class JobJournal:
    """Sealed, atomic, per-job lifecycle records plus the source spool."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.spool_dir = self.root / "spool"
        self.stats = JournalStats()

    # -- spool ---------------------------------------------------------

    def spool_path(self, job_id: str) -> Path:
        return self.spool_dir / job_id

    def write_spool(self, job: Job, files: dict[str, str]) -> Path:
        target = self.spool_path(job.id)
        target.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (target / name).write_text(text, encoding="utf-8")
        return target

    def check_target(self, job: Job) -> Path | None:
        """What the engine should check: the single source file, or the
        spool directory for multi-file projects; ``None`` if the spool
        vanished (e.g. a cache clear between journal write and restart)."""
        spool = self.spool_path(job.id)
        if not spool.is_dir():
            return None
        present = [spool / name for name in job.files if (spool / name).is_file()]
        if len(present) != len(job.files) or not present:
            return None
        return present[0] if len(present) == 1 else spool

    # -- journal -------------------------------------------------------

    def path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def record(self, job: Job) -> bool:
        """Persist one job state crash-safely; ``False`` on failure.

        A failed journal write (full disk, injected fault) degrades the
        *durability* of this transition — the job proceeds in memory and
        a restart sees the previous state — but never blocks serving.
        """
        envelope = store.seal(
            {"journal_version": JOURNAL_VERSION, "job": job.to_dict()}
        )
        text = json.dumps(envelope, indent=2, sort_keys=True)
        try:
            store.atomic_write_text(
                self.path(job.id), text, fault_key=f"serve-job/{job.id}"
            )
        except OSError:
            self.stats.write_failures += 1
            return False
        return True

    def load_all(self) -> list[Job]:
        """Every journaled job, sequence order; corrupt records skipped.

        A record that is unreadable, not JSON, version-skewed, fails its
        checksum seal, or is structurally malformed is counted and
        skipped — one torn journal entry loses one job's bookkeeping,
        never the daemon.
        """
        jobs: list[Job] = []
        if not self.jobs_dir.is_dir():
            return jobs
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                envelope = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                self.stats.corrupt_entries += 1
                continue
            if (
                not isinstance(envelope, dict)
                or envelope.get("journal_version") != JOURNAL_VERSION
                or not store.seal_intact(envelope)
            ):
                self.stats.corrupt_entries += 1
                continue
            job = Job.from_dict(envelope.get("job"))
            if job is None:
                self.stats.corrupt_entries += 1
                continue
            jobs.append(job)
        jobs.sort(key=lambda job: job.seq)
        self.stats.loaded_jobs = len(jobs)
        return jobs

    def remove(self, job_id: str) -> None:
        """Forget a finished job on disk: its spool, then its journal
        record.  A crash in between leaves a record without a spool,
        which a finished job does not need; a restart loads it and
        retires it again.  Best effort: what cannot be deleted stays.
        """
        shutil.rmtree(self.spool_path(job_id), ignore_errors=True)
        try:
            self.path(job_id).unlink()
        except OSError:
            pass

    def next_seq(self, jobs: list[Job]) -> int:
        return max((job.seq for job in jobs), default=0) + 1


def requeued(job: Job) -> Job:
    """A non-terminal journaled job, marked for re-execution after a
    daemon restart (the ``recovered`` counter is the audit trail)."""
    return replace(
        job,
        state=QUEUED,
        started_at=None,
        recovered=job.recovered + 1,
    )
