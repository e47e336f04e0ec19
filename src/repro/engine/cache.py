"""Content-addressed verdict cache.

One kind of entry: a class's check verdict — its name and diagnostic
list — keyed by the SHA-256 fingerprint of
:func:`repro.engine.fingerprint.class_key`.  Inference is
compositional, so a class verdict depends only on the class's own
syntax and the specs of its subsystems, and it is the unit worth
persisting: re-inferring a method costs less than reading it back.

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
        class/<k[:2]>/<k>.json

A tree written by an older build may also hold ``method/`` and
``locks/``: nothing reads them any more, and both are safe to delete.

Every payload is wrapped in an envelope carrying ``cache_version`` and
a SHA-256 **seal** over the envelope body (:mod:`repro.engine.store`);
entries written by an incompatible build, as well as unreadable,
truncated, or checksum-mismatched files, are treated as misses — the
cache can only ever cost a recomputation, never wrong output.

**Concurrent writers** (docs/robustness.md) take no lock.  Entries are
content-addressed, so every writer of one key writes identical bytes;
each write goes through a temp file + ``os.replace``, so readers see
whole entries or nothing and the loser of a rename race loses nothing;
and the seal catches the one failure mode rename cannot: a power cut
that persists the rename but tears the data blocks.  Crashed writers
leave ``.tmp-*`` orphans, which ``repro cache gc`` and daemon start
sweep (:meth:`InferenceCache.gc_tmp`); opening a cache does not walk
the tree.

The cache is additionally **self-healing**: a corrupt or truncated
entry (unreadable or non-UTF-8 file, invalid JSON, malformed envelope,
checksum mismatch) is deleted on discovery and counted in
``stats.corrupt_entries`` (checksum mismatches also in
``stats.checksum_failures``), so one bad sector or
interrupted write costs exactly one recomputation instead of a
re-parse-and-fail on every future run.  Version-mismatched entries are
left in place — another build may still want them.  An *unreachable
remote* backend is deliberately not a corruption: it reads as a plain
miss and, in a tiered setup, degrades the run to local-only.

**Counter contract** (docs/observability.md): one healed read counts
exactly once as a miss in ``stats.misses`` *and* once in
``stats.corrupt_entries`` — never more, even when the delete fails
(read-only directory, racing process) and later reads keep seeing the
corrupt file.  A successful :meth:`put` under the same key re-arms
counting, so a *new* corruption of the rewritten entry counts again.

The in-memory layer makes repeated lookups within one process free and
is guarded by a lock, so a thread-pool engine can share one instance;
the counters share that lock.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
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


@dataclass
class CacheStats:
    """Hit/miss/write/corruption counters, named like the
    :class:`~repro.engine.metrics.EngineMetrics` fields they feed."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt_entries: int = 0
    #: Subset of ``corrupt_entries``: entries whose JSON parsed but whose
    #: seal did not match — the torn-but-valid payloads only checksums
    #: catch.
    checksum_failures: int = 0
    #: Disk persists that failed (ENOSPC, rename failure, ...); the
    #: memory layer still holds the payload.
    write_failures: int = 0
    #: Orphaned ``.tmp-*`` files swept by :meth:`InferenceCache.gc_tmp`.
    orphans_removed: int = 0
    #: Remote-tier traffic (docs/distributed.md): requests answered /
    #: missed / uploaded by the remote cache, transport failures, and
    #: whether the run degraded to local-only.
    remote_hits: int = 0
    remote_misses: int = 0
    remote_puts: int = 0
    remote_errors: int = 0
    remote_degraded: int = 0


class InferenceCache:
    """Content-addressed store for class verdict payloads.

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
    ):
        if backend is None and root is not None:
            backend = LocalDirBackend(Path(root))
        self.backend = backend
        self.root = None if backend is None else backend.local_root
        self.stats = CacheStats()
        #: Set by the engine when a run is traced; cache events then show
        #: up on the open span.  The no-op default costs nothing.
        self.tracer = NULL_TRACER
        self._memory: dict[str, dict[str, Any]] = {}
        #: Keys whose corruption was already counted (see the counter
        #: contract in the module docstring); ``put`` re-arms them.
        self._healed: set[str] = set()
        self._lock = threading.Lock()
        if backend is not None:
            backend.bind(self)

    # ------------------------------------------------------------------

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload, or ``None`` on any kind of miss."""
        with self._lock:
            payload = self._memory.get(key)
        if payload is None and self.backend is not None:
            payload = self._read_entry(key)
            if payload is not None:
                with self._lock:
                    self._memory[key] = payload
        with self._lock:
            if payload is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        self.tracer.event("cache-miss" if payload is None else "cache-hit", key=key)
        return payload

    def _read_entry(self, key: str) -> dict[str, Any] | None:
        assert self.backend is not None
        try:
            text = self.backend.get_text(key)
        except RemoteUnavailable:
            # A down endpoint is a miss, not a corrupt entry; the remote
            # backend already counted the transport failure.
            return None
        except OSError:
            self._heal(key)
            return None
        if text is None:
            return None  # a plain miss, nothing to heal
        verdict, payload = classify_entry(text)
        if verdict == "ok":
            return payload
        if verdict == "version-skew":
            # Readable but written by another build; leave it alone.
            return None
        self._heal(key, checksum=(verdict == "checksum"))
        return None

    def _heal(self, key: str, *, checksum: bool = False) -> None:
        """Delete a corrupt entry so it costs one recomputation, once.

        One physical corruption counts once, no matter how many reads
        see it: when the delete below fails the entry survives, and the
        next ``get`` heals the *same* entry again — ``_healed`` keeps
        those repeats out of ``stats.corrupt_entries``.  A successful
        :meth:`put` under the key re-arms counting.
        """
        with self._lock:
            first = key not in self._healed
            if first:
                self._healed.add(key)
                self.stats.corrupt_entries += 1
                if checksum:
                    self.stats.checksum_failures += 1
        if first:
            if checksum:
                self.tracer.event("checksum-fail", key=key)
            self.tracer.event("cache-heal", key=key)
        assert self.backend is not None
        try:
            self.backend.delete(key)
        except OSError:
            pass  # already gone, or unreachable tier: best effort

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Store ``payload``; persists when the cache has a backend."""
        with self._lock:
            self._memory[key] = payload
            self._healed.discard(key)
            self.stats.writes += 1
        self.tracer.event("cache-write", key=key)
        if self.backend is None:
            return
        envelope = store.seal({"cache_version": CACHE_VERSION, "payload": payload})
        text = json.dumps(envelope, sort_keys=True)
        try:
            self.backend.put_text(key, text)
        except OSError as error:
            # A failed persist must not kill the check; the memory layer
            # still serves this process, and the failure is counted.
            with self._lock:
                self.stats.write_failures += 1
            self.tracer.event("cache-write-failed", key=key, error=str(error))

    def flush(self) -> None:
        """Wait for deferred backend writes (tiered write-behind)."""
        if self.backend is not None:
            self.backend.flush()

    def close(self) -> None:
        """Flush and release backend resources."""
        if self.backend is not None:
            self.backend.close()

    # ------------------------------------------------------------------

    def _entries(self) -> list[Path]:
        """Every entry file under ``<root>/class/``, sorted; none for a
        memory-only cache."""
        if self.root is None:
            return []
        return sorted((self.root / "class").rglob("*.json"))

    def disk_stats(self) -> dict[str, int]:
        """``{"entries": n, "bytes": b}`` on disk.

        Memory-only caches report their in-memory entries with zero
        bytes — there is nothing on disk to measure.
        """
        if self.root is None:
            return {"entries": len(self._memory), "bytes": 0}
        entries = size = 0
        for entry in self._entries():
            entries += 1
            try:
                size += entry.stat().st_size
            except OSError:
                pass
        return {"entries": entries, "bytes": size}

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

    def verify(self, *, repair: bool = False) -> dict[str, int]:
        """Full-scan audit of every entry's envelope and checksum.

        Returns the counts ``{"scanned", "ok", "version_skew",
        "corrupt", "repaired"}``.  With ``repair=True`` corrupt entries
        are deleted (exactly what the lazy self-healing read would do,
        but eagerly and store-wide); version-skewed entries are always
        left in place.  Memory-only caches report all zeros.
        """
        counts = {
            "scanned": 0, "ok": 0, "version_skew": 0, "corrupt": 0, "repaired": 0,
        }
        for entry in self._entries():
            counts["scanned"] += 1
            try:
                text = entry.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
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
                    "checksum-fail" if verdict == "checksum" else "cache-heal",
                    key=entry.stem,
                )
                if repair:
                    try:
                        entry.unlink()
                        counts["repaired"] += 1
                    except OSError:
                        pass
        return counts

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
        removed = 0
        for entry in self._entries():
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
