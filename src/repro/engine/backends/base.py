"""The pluggable storage protocol behind the inference cache.

:class:`~repro.engine.cache.InferenceCache` owns everything *semantic*
about caching — envelopes, seals, self-healing, the counter contract,
the in-memory layer — while a :class:`CacheBackend` owns the *transport*:
where sealed envelope **text** physically lives.  Three implementations
ship (docs/distributed.md):

* :class:`~repro.engine.backends.local.LocalDirBackend` — the classic
  ``.repro-cache/`` directory tree (sharded paths, unlocked atomic
  writes through :mod:`repro.engine.store`);
* :class:`~repro.engine.backends.remote.RemoteHTTPBackend` — GET/PUT of
  sealed envelopes against a ``repro cache serve`` daemon;
* :class:`~repro.engine.backends.tiered.TieredBackend` — local
  read-through over a remote, with asynchronous write-behind and clean
  degradation to local-only when the remote misbehaves.

The protocol is deliberately text-in/text-out: a backend never parses
an envelope, so a corrupt remote byte stream can only ever become a
detected corruption on the client (the seal check lives in the cache),
never wrong output.

Every entry is a class verdict, so a backend addresses it by its
content key alone.

**Error contract.**  ``get_text`` returns ``None`` for a plain miss and
raises :class:`OSError` for an *unreadable* entry — including one whose
bytes are not UTF-8 — and the cache heals it;
an unreachable remote raises the :class:`RemoteUnavailable` subclass,
which the cache treats as a plain miss — a down cache server is not a
corrupt entry.  ``put_text`` raises :class:`OSError` on a failed
persist (the cache counts it and keeps serving from memory).

Modules in this package must not import :mod:`repro.engine.cache` at
module level — the cache imports the package, and envelope helpers like
``classify_entry`` are imported lazily where needed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any


class RemoteUnavailable(OSError):
    """The remote cache endpoint could not serve the request.

    A subclass of :class:`OSError` so generic persistence error handling
    keeps working, but distinguishable: readers treat it as a plain miss
    (nothing to heal), and :class:`TieredBackend` feeds it into its
    degradation counter.
    """


class CacheBackend:
    """Where sealed cache-envelope text lives; see the module docstring.

    Subclasses implement :meth:`get_text` / :meth:`put_text` /
    :meth:`delete`.  :meth:`bind` attaches the owning cache, whose
    ``stats`` (:class:`~repro.engine.cache.CacheStats`) and ``tracer``
    the backend uses for counters and structured events — the owner is
    duck-typed to keep this package import-cycle-free.
    """

    #: The local directory the cache's scan/GC/state machinery
    #: (``disk_stats``, ``verify``, ``clear``, orphan GC) operates on, or
    #: ``None`` when there is no local tree (pure remote).
    local_root: Path | None = None

    def __init__(self) -> None:
        self._owner: Any = None

    def bind(self, owner: Any) -> None:
        """Attach the owning cache (for ``owner.stats`` / ``owner.tracer``)."""
        self._owner = owner

    # -- counter/event plumbing (no-ops until bound) --------------------

    def _stats(self) -> Any:
        owner = self._owner
        return None if owner is None else owner.stats

    def _event(self, name: str, **attrs: Any) -> None:
        owner = self._owner
        if owner is not None:
            owner.tracer.event(name, **attrs)

    # -- the transport protocol ----------------------------------------

    def get_text(self, key: str) -> str | None:
        """The stored envelope text, ``None`` on a plain miss.

        Raises :class:`OSError` for an unreadable entry (healed by the
        cache) or :class:`RemoteUnavailable` (treated as a miss).
        """
        raise NotImplementedError

    def put_text(self, key: str, text: str) -> None:
        """Persist envelope text; raises :class:`OSError` on failure."""
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        """Best-effort removal; ``True`` if an entry was deleted."""
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------

    def flush(self) -> None:
        """Wait for any deferred writes to settle (write-behind tiers)."""

    def close(self) -> None:
        """Release background resources; the backend stays usable-ish
        for reads but owes no further deferred work."""
