"""Local read-through over a remote cache, with write-behind.

The deployment shape for fleets (docs/distributed.md): every worker
keeps its private ``.repro-cache/`` tree as tier one and shares a
``repro cache serve`` endpoint as tier two.

* **Reads** hit the local tree first; a local miss consults the remote,
  and a remote hit is *promoted* into the local tree — but only after
  the envelope's seal verifies, so a corrupt or hostile remote byte
  stream can never take root locally.
* **Writes** land locally synchronously (verification latency never
  waits on the network) and are replicated to the remote by a
  write-behind thread; :meth:`flush` drains the replication queue, and
  a remote replication failure is counted, never raised.
* **Degradation**: after :data:`FAILURE_THRESHOLD` *consecutive*
  remote failures the tier stops talking to the remote for the rest of
  the run — one ``remote-degraded`` event, ``stats.remote_degraded``
  set, and the run continues local-only at full fidelity.  A single
  success before the threshold resets the streak.

Healing deletes (:meth:`delete`) touch only the local tier: if a local
entry went corrupt, the remote's sealed copy is exactly what should be
re-promoted on the next read.
"""

from __future__ import annotations

import queue
import threading
from pathlib import Path
from typing import Any

from repro.engine.backends.base import CacheBackend, RemoteUnavailable

#: Consecutive remote failures before the run degrades to local-only.
FAILURE_THRESHOLD = 3

_STOP = object()


class TieredBackend(CacheBackend):
    """Local tier in front of a remote tier; see the module docstring."""

    def __init__(self, local: CacheBackend, remote: CacheBackend) -> None:
        super().__init__()
        self.local = local
        self.remote = remote
        self.degraded = False
        self._failures = 0
        self._degrade_guard = threading.Lock()
        self._queue: queue.Queue[Any] = queue.Queue()
        self._writer = threading.Thread(
            target=self._replicate_forever,
            name="repro-cache-write-behind",
            daemon=True,
        )
        self._writer.start()

    @property
    def local_root(self) -> Path | None:
        return self.local.local_root

    def bind(self, owner: Any) -> None:
        super().bind(owner)
        self.local.bind(owner)
        self.remote.bind(owner)

    # -- reads ----------------------------------------------------------

    def get_text(self, key: str) -> str | None:
        # An unreadable *local* entry propagates so the cache heals it;
        # the heal deletes the local copy only, and the remote's sealed
        # copy is re-promoted on the next read.
        text = self.local.get_text(key)
        if text is not None:
            return text
        if self.degraded:
            return None
        try:
            text = self.remote.get_text(key)
        except RemoteUnavailable:
            self._remote_failed()
            return None
        self._remote_ok()
        if text is None:
            return None
        from repro.engine.cache import classify_entry

        verdict, _ = classify_entry(text)
        if verdict != "ok":
            # Never promote bytes whose seal does not verify; the entry
            # still reaches the cache as a miss, not as data.
            return None
        try:
            self.local.put_text(key, text)
        except OSError:
            # Promotion is an optimization; serving the remote copy is
            # correct either way.
            pass
        return text

    # -- writes ---------------------------------------------------------

    def put_text(self, key: str, text: str) -> None:
        self.local.put_text(key, text)
        if not self.degraded:
            self._queue.put((key, text))

    def delete(self, key: str) -> bool:
        return self.local.delete(key)

    # -- lifecycle ------------------------------------------------------

    def flush(self) -> None:
        self._queue.join()
        self.local.flush()

    def close(self) -> None:
        self._queue.join()
        self._queue.put(_STOP)
        self._writer.join(timeout=5.0)
        self.local.close()
        self.remote.close()

    # -- replication machinery ------------------------------------------

    def _replicate_forever(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                if not self.degraded:
                    self._replicate(*item)
            finally:
                self._queue.task_done()

    def _replicate(self, key: str, text: str) -> None:
        try:
            self.remote.put_text(key, text)
        except RemoteUnavailable:
            self._remote_failed()
        else:
            self._remote_ok()

    def _remote_ok(self) -> None:
        with self._degrade_guard:
            self._failures = 0

    def _remote_failed(self) -> None:
        with self._degrade_guard:
            if self.degraded:
                return
            self._failures += 1
            if self._failures < FAILURE_THRESHOLD:
                return
            self.degraded = True
        stats = self._stats()
        if stats is not None:
            stats.remote_degraded += 1
        self._event("remote-degraded", failures=FAILURE_THRESHOLD)
