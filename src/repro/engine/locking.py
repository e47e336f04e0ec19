"""Portable advisory file locks for cross-process store coordination.

:class:`FileLock` wraps the platform's advisory byte/whole-file lock —
``fcntl.flock`` on POSIX, ``msvcrt.locking`` on Windows — behind one
small API with the semantics the persistence layer needs
(docs/robustness.md):

* **bounded acquisition** — a deterministic poll loop with exponential
  backoff and a hard deadline, raising :class:`LockTimeout` instead of
  blocking forever (the caller degrades gracefully: the state writer
  skips the save and reports it);
* **reentrancy** — the same :class:`FileLock` instance can be
  re-acquired by the thread that holds it (a depth counter, released
  symmetrically), so composed call paths need no lock bookkeeping;
* **stale-lock recovery for free** — OS advisory locks die with their
  process, so a lock *file* left behind by a ``SIGKILL``-ed writer is
  immediately acquirable; no pid probing or lease expiry is needed.
  The holder's pid is written into the file purely as a diagnostic.

The ``lock-acquire`` fault-injection site fires on every acquisition
attempt (key = the lock's name): a ``delay`` rule simulates contention,
a ``lock-timeout`` rule forces the timed-out path so chaos profiles can
prove every caller survives it.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

from repro.engine import faults

if os.name == "nt":  # pragma: no cover - exercised only on Windows
    import msvcrt

    def _try_lock(handle: int) -> bool:
        try:
            os.lseek(handle, 0, os.SEEK_SET)
            msvcrt.locking(handle, msvcrt.LK_NBLCK, 1)
            return True
        except OSError:
            return False

    def _unlock(handle: int) -> None:
        try:
            os.lseek(handle, 0, os.SEEK_SET)
            msvcrt.locking(handle, msvcrt.LK_UNLCK, 1)
        except OSError:
            pass
else:
    import fcntl

    def _try_lock(handle: int) -> bool:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
            return True
        except OSError:
            return False

    def _unlock(handle: int) -> None:
        try:
            fcntl.flock(handle, fcntl.LOCK_UN)
        except OSError:
            pass


#: Default acquisition deadline; long enough for a slow writer to
#: finish, short enough that a wedged peer cannot stall a run forever.
DEFAULT_TIMEOUT = 10.0

#: First poll interval of the backoff loop; doubles up to the cap.
DEFAULT_POLL = 0.005
MAX_POLL = 0.2


class LockTimeout(TimeoutError):
    """Lock not acquired within the deadline."""

    def __init__(self, path: Path, waited: float):
        super().__init__(
            f"could not acquire lock {path} within {waited:.2f}s"
        )
        self.path = path
        self.waited = waited


class FileLock:
    """A reentrant, advisory, cross-process file lock.

    ``name`` keys fault injection and observability events; it defaults
    to the lock file's stem.  Use one instance per logical lock — the
    reentrancy accounting is per instance, while the cross-process
    exclusion is the OS's.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        name: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        poll: float = DEFAULT_POLL,
    ):
        self.path = Path(path)
        self.name = name if name is not None else self.path.stem
        self.timeout = timeout
        self.poll = poll
        #: Wall time the most recent acquisition spent waiting.
        self.waited = 0.0
        self._handle: int | None = None
        self._owner: int | None = None
        self._depth = 0
        self._mutex = threading.Lock()

    # ------------------------------------------------------------------

    @property
    def held(self) -> bool:
        return self._depth > 0

    def acquire(self, timeout: float | None = None) -> None:
        """Take the lock, waiting up to ``timeout`` (instance default).

        Raises :class:`LockTimeout` when the deadline passes — including
        when a ``lock-acquire:lock-timeout`` fault rule fires, which
        forces this path without any real contention.
        """
        me = threading.get_ident()
        with self._mutex:
            if self._owner == me and self._depth > 0:
                self._depth += 1
                return
        try:
            faults.fire("lock-acquire", self.name)
        except faults.InjectedLockTimeout:
            raise LockTimeout(self.path, 0.0)
        deadline_budget = self.timeout if timeout is None else timeout
        started = time.monotonic()
        deadline = started + deadline_budget
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        pause = self.poll
        acquired = False
        try:
            while True:
                if _try_lock(handle):
                    acquired = True
                    break
                now = time.monotonic()
                if now >= deadline:
                    raise LockTimeout(self.path, now - started)
                time.sleep(min(pause, max(0.0, deadline - now)))
                pause = min(pause * 2, MAX_POLL)
        finally:
            if not acquired:
                try:
                    os.close(handle)
                except OSError:
                    pass
        self.waited = time.monotonic() - started
        try:  # holder pid, purely diagnostic (never trusted for liveness)
            os.ftruncate(handle, 0)
            os.write(handle, f"{os.getpid()}\n".encode("ascii"))
        except OSError:
            pass
        with self._mutex:
            self._handle = handle
            self._owner = me
            self._depth = 1

    def release(self) -> None:
        """Drop one level of the lock; the OS lock goes at depth zero.

        The lock *file* is left on disk — deleting it is racy (a peer
        may hold an open handle to it), and an unheld lock file is
        harmless by construction.
        """
        with self._mutex:
            if self._depth == 0 or self._owner != threading.get_ident():
                raise RuntimeError(
                    f"release of lock {self.path} not held by this thread"
                )
            self._depth -= 1
            if self._depth > 0:
                return
            handle = self._handle
            self._handle = None
            self._owner = None
        if handle is not None:
            _unlock(handle)
            try:
                os.close(handle)
            except OSError:
                pass

    # ------------------------------------------------------------------

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


def lock_for(path: str | Path, **kwargs) -> FileLock:
    """The lock guarding writes to ``path`` (``<path>.lock`` beside it)."""
    path = Path(path)
    return FileLock(path.with_name(path.name + ".lock"), **kwargs)
