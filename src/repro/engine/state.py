"""Persistent per-project incremental state (``.repro-cache/state.json``).

One verified project leaves behind a *state file*: for every class, the
fingerprints the incremental planner diffs against (the full-syntax
class fingerprint and the spec-structure digest), the names of the
subsystem classes it declares, and — for classes whose check completed —
the serialized verdict, ready to splice into the next run's report
without re-checking anything (:mod:`repro.engine.incremental`).

The file is versioned twice over: by :data:`STATE_VERSION` (this
module's payload shape) *and* by
:data:`repro.engine.fingerprint.FINGERPRINT_VERSION` (the meaning of the
stored digests).  A mismatch on either — like any unreadable, truncated
or structurally malformed file, or an envelope whose SHA-256 seal does
not match its content (:mod:`repro.engine.store`) — makes
:func:`load_state` report an unusable state, and the caller falls back
to a cold run instead of erroring: stale state can only ever cost a
recomputation, never wrong output.

**Crash-safe, multi-process writes** (docs/robustness.md).  The file is
single-writer across processes: :func:`save_state` takes an advisory
file lock (``state.json.lock``, :mod:`repro.engine.locking`), re-reads
the file on disk (decoding it again only when its bytes differ from the
ones this run loaded), **merges** a concurrent writer's verdicts into the
fresh snapshot (a verified entry with identical digests is never
clobbered by our "unverified"), bumps the envelope's ``generation``
counter, and publishes with a fsynced atomic rename.  Every failure —
lock timeout, full disk, failed rename — degrades to "this run's state
was not recorded" (the next run is colder, never wrong) and comes back
as a structured :class:`SaveReport` instead of vanishing in a silent
``except``.

Classes the supervisor quarantined are stored with ``diagnostics=None``
("digests known, verdict unknown"): the next incremental run re-checks
them without also dirtying their dependents, whose view of the class —
its spec structure — was computed from the parse and is still valid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.engine import store
from repro.engine.fingerprint import FINGERPRINT_VERSION
from repro.engine.locking import LockTimeout, lock_for
from repro.obs.tracer import NULL_TRACER, Tracer

#: Bump when the state payload shape changes; old files then fall back
#: to a cold run instead of being misread.  Version 2 added the
#: checksum seal and the generation counter.
STATE_VERSION = 2

#: Deadline for the state write lock; a timed-out save is skipped (and
#: reported), never forced — state is an optimization, not an output.
STATE_LOCK_TIMEOUT = 5.0

#: File name inside the cache directory (state is co-located with the
#: content-addressed cache; ``repro cache clear`` removes both).
STATE_FILENAME = "state.json"


def state_path(cache_dir: str | Path) -> Path:
    """Default state-file location for a cache directory."""
    return Path(cache_dir) / STATE_FILENAME


@dataclass(frozen=True)
class ClassState:
    """What the last run knew about one class."""

    name: str
    #: Digest of the full syntactic content (line numbers included) —
    #: :func:`repro.engine.fingerprint.class_fingerprint`.
    fingerprint: str
    #: Digest of the specification structure only —
    #: :func:`repro.engine.fingerprint.spec_fingerprint`.
    spec: str
    #: Names of every class this one declares as a subsystem type,
    #: sorted; in-module or not (missing dependencies matter too).
    deps: tuple[str, ...]
    #: Serialized verdict (:mod:`repro.engine.serialize` dicts), or
    #: ``None`` when the last run quarantined the class.
    diagnostics: tuple[dict[str, Any], ...] | None
    #: Wave index and wall time of the recorded check (diagnostics
    #: context for ``repro state show``; not used for planning).
    wave: int = 0
    seconds: float = 0.0

    @property
    def verified(self) -> bool:
        return self.diagnostics is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "spec": self.spec,
            "deps": list(self.deps),
            "diagnostics": (
                None if self.diagnostics is None else list(self.diagnostics)
            ),
            "wave": self.wave,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class ProjectState:
    """The complete recorded outcome of one project run."""

    classes: Mapping[str, ClassState] = field(default_factory=dict)
    source_name: str = ""
    #: Monotonic write counter: every successful :func:`save_state`
    #: stores the on-disk generation + 1, so concurrent writers are
    #: observable and "did someone write since I loaded?" is a compare.
    generation: int = 0
    #: The file bytes :func:`load_state` decoded this state from; a save
    #: whose re-read finds the same bytes merges against this state
    #: instead of decoding the file again.
    raw: bytes | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "state_version": STATE_VERSION,
            "fingerprint_version": FINGERPRINT_VERSION,
            "generation": self.generation,
            "source_name": self.source_name,
            "classes": {
                name: entry.to_dict()
                for name, entry in sorted(self.classes.items())
            },
        }


# ----------------------------------------------------------------------
# Load / save / remove
# ----------------------------------------------------------------------

def _class_state_from_dict(name: str, data: Any) -> ClassState | None:
    """One class entry, or ``None`` when it is structurally malformed.

    Only the *shape* is validated here; whether the stored diagnostics
    deserialize is the planner's concern (it drops unusable verdicts by
    marking the class dirty, so a half-corrupt file still salvages every
    healthy entry).
    """
    if not isinstance(data, dict):
        return None
    fingerprint = data.get("fingerprint")
    spec = data.get("spec")
    deps = data.get("deps")
    diagnostics = data.get("diagnostics")
    if not isinstance(fingerprint, str) or not isinstance(spec, str):
        return None
    if not isinstance(deps, list) or not all(isinstance(d, str) for d in deps):
        return None
    if diagnostics is not None:
        if not isinstance(diagnostics, list) or not all(
            isinstance(entry, dict) for entry in diagnostics
        ):
            return None
    wave = data.get("wave", 0)
    seconds = data.get("seconds", 0.0)
    if not isinstance(wave, int) or not isinstance(seconds, (int, float)):
        return None
    return ClassState(
        name=name,
        fingerprint=fingerprint,
        spec=spec,
        deps=tuple(deps),
        diagnostics=None if diagnostics is None else tuple(diagnostics),
        wave=wave,
        seconds=float(seconds),
    )


def load_state(path: str | Path) -> tuple[ProjectState | None, str | None]:
    """Read a state file; ``(state, None)`` or ``(None, why-not)``.

    Every failure mode — missing file, unreadable file, invalid JSON,
    version mismatch, malformed structure — comes back as a reason
    string so callers can report *why* the run went cold.
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return None, "no state file (first run?)"
    except OSError as error:
        return None, f"unreadable state file: {error}"
    return _decode_state(raw)


def _decode_state(raw: bytes) -> tuple[ProjectState | None, str | None]:
    try:
        envelope = json.loads(raw.decode("utf-8"))
    except ValueError:  # invalid UTF-8 included
        return None, "corrupt state file (invalid JSON)"
    if not isinstance(envelope, dict):
        return None, "corrupt state file (not an object)"
    if envelope.get("state_version") != STATE_VERSION:
        return None, (
            f"state version {envelope.get('state_version')!r} "
            f"(this build expects {STATE_VERSION})"
        )
    if envelope.get("fingerprint_version") != FINGERPRINT_VERSION:
        return None, (
            f"stale fingerprint version {envelope.get('fingerprint_version')!r} "
            f"(this build expects {FINGERPRINT_VERSION})"
        )
    if not store.seal_intact(envelope):
        # Valid JSON, right versions, wrong bytes: the torn-but-valid
        # write only the checksum catches.
        return None, "corrupt state file (checksum mismatch)"
    raw_classes = envelope.get("classes")
    if not isinstance(raw_classes, dict):
        return None, "corrupt state file (no class table)"
    classes: dict[str, ClassState] = {}
    for name, data in raw_classes.items():
        entry = _class_state_from_dict(name, data)
        if entry is None:
            # One malformed entry does not spoil the rest: the class
            # simply looks "never seen before" and gets re-checked.
            continue
        classes[name] = entry
    source_name = envelope.get("source_name")
    generation = envelope.get("generation")
    return (
        ProjectState(
            classes=classes,
            source_name=source_name if isinstance(source_name, str) else "",
            generation=generation if isinstance(generation, int) else 0,
            raw=raw,
        ),
        None,
    )


@dataclass(frozen=True)
class SaveReport:
    """What one :func:`save_state` call actually did.

    ``ok=False`` means the snapshot was *not* published — the next run
    degrades toward cold, nothing worse — and ``reason`` says why.
    """

    ok: bool
    reason: str | None = None
    #: Generation written (or the last one observed when the save failed).
    generation: int = 0
    #: Verdicts preserved from a concurrent writer's on-disk state.
    merged_classes: int = 0
    #: Wall time spent waiting for the state lock.
    waited: float = 0.0
    lock_timeout: bool = False


def merge_states(
    disk: ProjectState, fresh: ProjectState
) -> tuple[ProjectState, int]:
    """Overlay ``fresh`` onto ``disk``; returns (merged, kept-from-disk).

    The fresh snapshot is authoritative for the class *set* (it reflects
    the current parse) and for every class it verified.  The one thing a
    concurrent writer can contribute is a **verdict we lack**: where our
    entry is unverified (quarantined this run) and the on-disk entry has
    identical fingerprints *and* a stored verdict, theirs is kept —
    verdicts are pure functions of those digests, so this can never
    merge in wrong output, only rescue work another process finished.
    """
    kept = 0
    classes: dict[str, ClassState] = {}
    for name, ours in fresh.classes.items():
        theirs = disk.classes.get(name)
        if (
            ours.diagnostics is None
            and theirs is not None
            and theirs.diagnostics is not None
            and theirs.fingerprint == ours.fingerprint
            and theirs.spec == ours.spec
        ):
            classes[name] = theirs
            kept += 1
        else:
            classes[name] = ours
    return (
        ProjectState(
            classes=classes,
            source_name=fresh.source_name,
            generation=fresh.generation,
        ),
        kept,
    )


def _on_disk(path: Path, loaded: ProjectState | None) -> ProjectState | None:
    """The usable state the file holds now, if any: ``loaded`` itself
    when the file's bytes are still the ones it was decoded from."""
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    if loaded is not None and raw == loaded.raw:
        return loaded
    return _decode_state(raw)[0]


def save_state(
    path: str | Path,
    state: ProjectState,
    *,
    loaded: ProjectState | None = None,
    lock_timeout: float = STATE_LOCK_TIMEOUT,
    tracer: Tracer | None = None,
) -> SaveReport:
    """Persist ``state`` crash-safely with single-writer semantics.

    Under the ``<path>.lock`` advisory lock: re-read the file on disk,
    merge a concurrent writer's compatible verdicts into the snapshot
    (:func:`merge_states`), bump the generation counter, seal, and
    publish compact JSON with a fsynced atomic rename.  The re-read
    decodes the file only when its bytes differ from the ones ``loaded``
    (the state this run planned against) was decoded from.  Every
    failure mode is reported (and traced), never swallowed: a lock
    timeout skips the save entirely (writing without the lock could drop
    a concurrent writer's generation), a failed write leaves the
    previous state intact.
    """
    path = Path(path)
    tracer = tracer if tracer is not None else NULL_TRACER
    path.parent.mkdir(parents=True, exist_ok=True)
    lock = lock_for(path, name="state", timeout=lock_timeout)
    try:
        lock.acquire()
    except LockTimeout as timeout:
        tracer.event("lock-timeout", lock="state")
        tracer.event("state-save-failed", reason="lock timeout")
        return SaveReport(
            ok=False,
            reason=f"state lock timeout: {timeout}",
            waited=timeout.waited,
            lock_timeout=True,
        )
    try:
        if lock.waited > 0.001:
            tracer.event(
                "lock-wait", lock="state", seconds=round(lock.waited, 6)
            )
        disk = _on_disk(path, loaded)
        merged_classes = 0
        generation = 1
        merged = state
        if disk is not None:
            generation = disk.generation + 1
            if disk.source_name == state.source_name:
                merged, merged_classes = merge_states(disk, state)
                if merged_classes:
                    tracer.event(
                        "state-merge", kept=merged_classes,
                        generation=generation,
                    )
        merged = ProjectState(
            classes=merged.classes,
            source_name=merged.source_name,
            generation=generation,
        )
        text = json.dumps(
            store.seal(merged.to_dict()), sort_keys=True, separators=(",", ":")
        )
        try:
            store.atomic_write_text(path, text, fault_key="state", fsync=True)
        except OSError as error:
            tracer.event("state-save-failed", reason=str(error))
            return SaveReport(
                ok=False,
                reason=f"state write failed: {error}",
                generation=generation,
                merged_classes=merged_classes,
                waited=lock.waited,
            )
        return SaveReport(
            ok=True,
            generation=generation,
            merged_classes=merged_classes,
            waited=lock.waited,
        )
    finally:
        lock.release()


def remove_state(path: str | Path) -> bool:
    """Delete a state file; ``True`` when one existed and was removed."""
    try:
        Path(path).unlink()
        return True
    except FileNotFoundError:
        return False
    except OSError:
        return False
