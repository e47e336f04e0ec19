"""Content-addressed inference cache.

Two namespaces, both keyed by SHA-256 fingerprints from
:mod:`repro.engine.fingerprint`:

* ``method`` — the inferred behavior of one body term: the ongoing regex
  and the per-exit regexes, stored in the paper's concrete syntax (the
  parser/printer pair round-trips canonical terms exactly);
* ``class`` — a class's check verdict: the diagnostic list, plus the
  determinized behavior DFA when the check computed one (composites).

Lookups against any other namespace raise ``ValueError`` — that is a
caller bug, not a miss.

**Storage backends** (docs/distributed.md).  Where envelope text
physically lives is delegated to a
:class:`~repro.engine.backends.base.CacheBackend`: the default
:class:`~repro.engine.backends.local.LocalDirBackend` keeps today's
on-disk layout, :class:`~repro.engine.backends.remote.RemoteHTTPBackend`
talks to a shared ``repro cache serve`` daemon, and
:class:`~repro.engine.backends.tiered.TieredBackend` layers the two.
The cache itself stays the single owner of *semantics*: envelopes,
seals, healing, and the counter contract below hold identically over
every backend.  Layout of the local tree (safe to delete at any time)::

    .repro-cache/
        CACHEDIR.TAG
        locks/<namespace>.lock
        method/<k[:2]>/<k>.json
        class/<k[:2]>/<k>.json

Every payload is wrapped in an envelope carrying ``cache_version`` and
a SHA-256 **seal** over the envelope body (:mod:`repro.engine.store`);
entries written by an incompatible build, as well as unreadable,
truncated, or checksum-mismatched files, are treated as misses — the
cache can only ever cost a recomputation, never wrong output.  Writes
go through a temp file + ``os.replace`` so concurrent runs see whole
entries or nothing, and the seal catches the one failure mode rename
cannot: a power cut that persists the rename but tears the data blocks.

The cache is additionally **self-healing**: a corrupt or truncated
entry (unreadable file, invalid JSON, malformed envelope, checksum
mismatch) is deleted on discovery and counted in ``stats.corrupt``
(checksum mismatches also in ``stats.checksum``), so one bad sector or
interrupted write costs exactly one recomputation instead of a
re-parse-and-fail on every future run.  Version-mismatched entries are
left in place — another build may still want them.  An *unreachable
remote* backend is deliberately not a corruption: it reads as a plain
miss and, in a tiered setup, degrades the run to local-only.

**Counter contract** (docs/observability.md): one healed read counts
exactly once as a miss in ``stats.misses`` *and* once in
``stats.corrupt`` — never more, even when the delete fails (read-only
directory, racing process) and later reads keep seeing the corrupt
file.  A successful :meth:`put` under the same key re-arms counting, so
a *new* corruption of the rewritten entry counts again.

**Multi-process coordination** (docs/robustness.md).  Writes in each
namespace are serialized across processes by an advisory file lock
(:mod:`repro.engine.locking`) with a short deadline; a timed-out writer
*proceeds anyway* — entries are content-addressed, so concurrent
writers of one key produce identical bytes and the loser of the rename
race loses nothing — but the contention is counted
(``stats.lock_waits`` / ``stats.lock_timeouts``) and surfaced as
``lock-wait`` / ``lock-timeout`` events.  Construction sweeps orphaned
``.tmp-*`` files older than an hour (crashed writers; see
``repro cache gc``) into ``stats.orphans_removed``.

The in-memory layer makes repeated lookups within one process free and
is guarded by a lock, so a thread-pool engine can share one instance;
the counters share that lock.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.engine import store
from repro.engine.backends import LocalDirBackend, RemoteUnavailable
from repro.engine.backends.base import CacheBackend
from repro.obs.tracer import NULL_TRACER

#: Bump together with payload shape changes.  Version 2 added the
#: checksum seal; version-1 entries read as version skew (a miss).
CACHE_VERSION = 2

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Deadline for the per-namespace write lock; timing out is harmless
#: (the write proceeds) but counted.
WRITE_LOCK_TIMEOUT = 5.0

#: The cache's namespaces; any other is rejected with ``ValueError``.
_NAMESPACES = ("method", "class")


def _namespace_counters() -> dict[str, int]:
    return {namespace: 0 for namespace in _NAMESPACES}


@dataclass
class CacheStats:
    """Hit/miss/write/corruption counters, per namespace.

    The per-namespace dicts start with zeros for the cache's namespaces
    and grow on demand: :meth:`bump` and :meth:`hit_rate` accept any
    name without raising ``KeyError``.
    """

    hits: dict[str, int] = field(default_factory=_namespace_counters)
    misses: dict[str, int] = field(default_factory=_namespace_counters)
    writes: dict[str, int] = field(default_factory=_namespace_counters)
    corrupt: dict[str, int] = field(default_factory=_namespace_counters)
    #: Subset of ``corrupt``: entries whose JSON parsed but whose seal
    #: did not match — the torn-but-valid payloads only checksums catch.
    checksum: dict[str, int] = field(default_factory=_namespace_counters)
    #: Disk persists that failed (ENOSPC, rename failure, ...); the
    #: memory layer still holds the payload.
    write_failures: dict[str, int] = field(default_factory=_namespace_counters)
    #: Cross-process write-lock contention (docs/robustness.md).
    lock_waits: int = 0
    lock_wait_seconds: float = 0.0
    lock_timeouts: int = 0
    #: Orphaned ``.tmp-*`` files swept at construction or by ``gc``.
    orphans_removed: int = 0
    #: Remote-tier traffic (docs/distributed.md): requests answered /
    #: missed / uploaded by the remote cache, transport failures, and
    #: whether the run degraded to local-only.
    remote_hits: int = 0
    remote_misses: int = 0
    remote_puts: int = 0
    remote_errors: int = 0
    remote_degraded: int = 0

    def bump(self, counter: str, namespace: str, value: int = 1) -> None:
        """Increment a per-namespace counter, creating the slot."""
        counts = getattr(self, counter)
        counts[namespace] = counts.get(namespace, 0) + value

    def hit_rate(self, namespace: str) -> float:
        hits = self.hits.get(namespace, 0)
        total = hits + self.misses.get(namespace, 0)
        return hits / total if total else 0.0

    @property
    def corrupt_entries(self) -> int:
        """Total corrupt entries found (and deleted) across namespaces."""
        return sum(self.corrupt.values())

    @property
    def checksum_failures(self) -> int:
        return sum(self.checksum.values())

    @property
    def write_failure_count(self) -> int:
        return sum(self.write_failures.values())


class InferenceCache:
    """Content-addressed store for inference and verdict payloads.

    ``root=None`` keeps the cache purely in memory (one process, no
    persistence) — useful for tests and for the engine's default when
    the user did not opt into ``--cache``.  Passing ``backend=``
    overrides where persisted envelopes live (the ``root`` argument is
    then ignored; the backend's own local tree, if any, becomes
    :attr:`root` for the scan/GC/state machinery).
    """

    def __init__(
        self,
        root: str | Path | None = DEFAULT_CACHE_DIR,
        *,
        backend: CacheBackend | None = None,
        lock_timeout: float = WRITE_LOCK_TIMEOUT,
        tmp_gc_min_age: float = store.DEFAULT_TMP_GC_MIN_AGE,
    ):
        if backend is None and root is not None:
            backend = LocalDirBackend(Path(root), lock_timeout=lock_timeout)
        self.backend = backend
        self.root = None if backend is None else backend.local_root
        self.stats = CacheStats()
        self.lock_timeout = lock_timeout
        #: Set by the engine when a run is traced; cache events then show
        #: up on the open span.  The no-op default costs nothing.
        self.tracer = NULL_TRACER
        self._memory: dict[tuple[str, str], dict[str, Any]] = {}
        #: Keys whose corruption was already counted (see the counter
        #: contract in the module docstring); ``put`` re-arms them.
        self._healed: set[tuple[str, str]] = set()
        self._lock = threading.Lock()
        if backend is not None:
            backend.bind(self)
        if self.root is not None:
            # Startup GC: crashed writers leave .tmp-* orphans behind;
            # the age gate keeps live writers out of reach.
            self.stats.orphans_removed += store.gc_tmp_files(
                self.root, min_age_seconds=tmp_gc_min_age
            )

    # ------------------------------------------------------------------

    def _path(self, namespace: str, key: str) -> Path:
        assert self.root is not None
        return self.root / namespace / key[:2] / f"{key}.json"

    def get(self, namespace: str, key: str) -> dict[str, Any] | None:
        """The stored payload, or ``None`` on any kind of miss."""
        if namespace not in _NAMESPACES:
            raise ValueError(f"unknown cache namespace: {namespace!r}")
        with self._lock:
            payload = self._memory.get((namespace, key))
        if payload is None and self.backend is not None:
            payload = self._read_entry(namespace, key)
            if payload is not None:
                with self._lock:
                    self._memory[(namespace, key)] = payload
        if payload is None:
            with self._lock:
                self.stats.bump("misses", namespace)
            self.tracer.event("cache-miss", namespace=namespace, key=key)
            return None
        with self._lock:
            self.stats.bump("hits", namespace)
        self.tracer.event("cache-hit", namespace=namespace, key=key)
        return payload

    def _read_entry(self, namespace: str, key: str) -> dict[str, Any] | None:
        assert self.backend is not None
        try:
            text = self.backend.get_text(namespace, key)
        except RemoteUnavailable:
            # A down endpoint is a miss, not a corrupt entry; the remote
            # backend already counted the transport failure.
            return None
        except OSError:
            self._heal(namespace, key)
            return None
        if text is None:
            return None  # a plain miss, nothing to heal
        verdict, payload = classify_entry(text)
        if verdict == "ok":
            return payload
        if verdict == "version-skew":
            # Readable but written by another build; leave it alone.
            return None
        self._heal(namespace, key, checksum=(verdict == "checksum"))
        return None

    def _heal(self, namespace: str, key: str, *, checksum: bool = False) -> None:
        """Delete a corrupt entry so it costs one recomputation, once.

        One physical corruption counts once, no matter how many reads
        see it: when the delete below fails the entry survives, and the
        next ``get`` heals the *same* entry again — ``_healed`` keeps
        those repeats out of ``stats.corrupt``.  A successful
        :meth:`put` under the key re-arms counting.
        """
        with self._lock:
            first = (namespace, key) not in self._healed
            if first:
                self._healed.add((namespace, key))
                self.stats.bump("corrupt", namespace)
                if checksum:
                    self.stats.bump("checksum", namespace)
        if first:
            if checksum:
                self.tracer.event(
                    "checksum-fail", namespace=namespace, key=key
                )
            self.tracer.event("cache-heal", namespace=namespace, key=key)
        assert self.backend is not None
        try:
            self.backend.delete(namespace, key)
        except OSError:
            pass  # already gone, or unreachable tier: best effort

    def put(self, namespace: str, key: str, payload: dict[str, Any]) -> None:
        """Store ``payload``; persists when the cache has a backend."""
        if namespace not in _NAMESPACES:
            raise ValueError(f"unknown cache namespace: {namespace!r}")
        with self._lock:
            self._memory[(namespace, key)] = payload
            self._healed.discard((namespace, key))
            self.stats.bump("writes", namespace)
        self.tracer.event("cache-write", namespace=namespace, key=key)
        if self.backend is None:
            return
        envelope = store.seal({"cache_version": CACHE_VERSION, "payload": payload})
        text = json.dumps(envelope, sort_keys=True)
        try:
            self.backend.put_text(namespace, key, text)
        except OSError as error:
            # A failed persist must not kill the check; the memory layer
            # still serves this process, and the failure is counted.
            with self._lock:
                self.stats.bump("write_failures", namespace)
            self.tracer.event(
                "cache-write-failed", namespace=namespace, key=key,
                error=str(error),
            )

    def flush(self) -> None:
        """Wait for deferred backend writes (tiered write-behind)."""
        if self.backend is not None:
            self.backend.flush()

    def close(self) -> None:
        """Flush and release backend resources."""
        if self.backend is not None:
            self.backend.close()

    # ------------------------------------------------------------------

    def entry_count(self) -> int:
        """Number of entries on disk (0 for memory-only caches)."""
        if self.root is None:
            return len(self._memory)
        count = 0
        for namespace in _NAMESPACES:
            directory = self.root / namespace
            if directory.is_dir():
                count += sum(1 for _ in directory.rglob("*.json"))
        return count

    def disk_stats(self) -> dict[str, dict[str, int]]:
        """Per-namespace ``{"entries": n, "bytes": b}`` on disk.

        Memory-only caches report their in-memory entries with zero
        bytes — there is nothing on disk to measure.
        """
        stats: dict[str, dict[str, int]] = {}
        for namespace in _NAMESPACES:
            entries = size = 0
            if self.root is None:
                entries = sum(
                    1 for (space, _key) in self._memory if space == namespace
                )
            else:
                directory = self.root / namespace
                if directory.is_dir():
                    for entry in directory.rglob("*.json"):
                        entries += 1
                        try:
                            size += entry.stat().st_size
                        except OSError:
                            pass
            stats[namespace] = {"entries": entries, "bytes": size}
        return stats

    # -- audit, repair, and GC (docs/robustness.md) ---------------------

    def orphan_count(self) -> int:
        """Orphaned ``.tmp-*`` files currently on disk."""
        if self.root is None:
            return 0
        return len(store.orphan_tmp_files(self.root))

    def gc_tmp(self, *, min_age_seconds: float = 0.0) -> int:
        """Sweep orphaned temp files; returns how many were removed."""
        if self.root is None:
            return 0
        removed = store.gc_tmp_files(
            self.root, min_age_seconds=min_age_seconds
        )
        with self._lock:
            self.stats.orphans_removed += removed
        return removed

    def verify(self, *, repair: bool = False) -> dict[str, dict[str, int]]:
        """Full-scan audit of every entry's envelope and checksum.

        Returns per-namespace counts ``{"scanned", "ok", "version_skew",
        "corrupt", "repaired"}``.  With ``repair=True`` corrupt entries
        are deleted (exactly what the lazy self-healing read would do,
        but eagerly and store-wide); version-skewed entries are always
        left in place.  Memory-only caches report all zeros.
        """
        report: dict[str, dict[str, int]] = {}
        for namespace in _NAMESPACES:
            counts = {
                "scanned": 0, "ok": 0, "version_skew": 0,
                "corrupt": 0, "repaired": 0,
            }
            report[namespace] = counts
            if self.root is None:
                continue
            directory = self.root / namespace
            if not directory.is_dir():
                continue
            for entry in sorted(directory.rglob("*.json")):
                counts["scanned"] += 1
                try:
                    text = entry.read_text(encoding="utf-8")
                except OSError:
                    verdict = "corrupt"
                else:
                    verdict, _payload = classify_entry(text)
                if verdict == "ok":
                    counts["ok"] += 1
                elif verdict == "version-skew":
                    counts["version_skew"] += 1
                else:
                    counts["corrupt"] += 1
                    self.tracer.event(
                        "checksum-fail" if verdict == "checksum"
                        else "cache-heal",
                        namespace=namespace,
                        key=entry.stem,
                    )
                    if repair:
                        try:
                            entry.unlink()
                            counts["repaired"] += 1
                        except OSError:
                            pass
        return report

    # -- incremental project state (docs/incremental.md) ----------------

    @property
    def state_path(self) -> Path | None:
        """Where the incremental project state lives, co-located with
        the cache (``<root>/state.json``); ``None`` for memory-only."""
        if self.root is None:
            return None
        from repro.engine.state import state_path

        return state_path(self.root)

    def state_stats(self) -> dict[str, int]:
        """``{"entries": recorded classes, "bytes": file size}`` for the
        co-located state file (zeros when there is none)."""
        path = self.state_path
        if path is None or not path.is_file():
            return {"entries": 0, "bytes": 0}
        from repro.engine.state import load_state

        state, _reason = load_state(path)
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        return {
            "entries": 0 if state is None else len(state.classes),
            "bytes": size,
        }

    def clear_state(self) -> bool:
        """Remove the co-located state file; ``True`` if one existed."""
        path = self.state_path
        if path is None:
            return False
        from repro.engine.state import remove_state

        return remove_state(path)

    def clear(self) -> int:
        """Drop every entry (memory and disk); returns how many were
        removed from disk.  The directory skeleton and ``CACHEDIR.TAG``
        stay, so a cleared cache is still a valid cache."""
        with self._lock:
            self._memory.clear()
        if self.root is None:
            return 0
        removed = 0
        for namespace in _NAMESPACES:
            directory = self.root / namespace
            if not directory.is_dir():
                continue
            for entry in directory.rglob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


def classify_entry(text: str) -> tuple[str, dict[str, Any] | None]:
    """Classify one cache file's content.

    Returns ``("ok", payload)``, ``("version-skew", None)`` for entries
    another build wrote, or ``("corrupt", None)`` / ``("checksum",
    None)`` for the two corruption flavors (structural vs. a parsed
    envelope whose seal does not match its content).
    """
    try:
        envelope = json.loads(text)
    except ValueError:
        return "corrupt", None
    if not isinstance(envelope, dict):
        return "corrupt", None
    if envelope.get("cache_version") != CACHE_VERSION:
        return "version-skew", None
    if not store.seal_intact(envelope):
        return "checksum", None
    if not isinstance(envelope.get("payload"), dict):
        return "corrupt", None
    return "ok", envelope["payload"]
