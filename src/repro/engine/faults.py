"""Deterministic fault injection for the batch-verification engine.

Every recovery path of the supervisor — retry, pool respawn, quarantine,
cache self-healing — must be exercisable by ordinary tier-1 tests, not
by hoping production misbehaves first.  This module injects faults at
named call sites, driven by a compact spec from the environment
(``REPRO_FAULTS``), the CLI (``repro check --faults``), or
programmatically (:func:`install`).

Spec grammar (rules separated by ``;``)::

    REPRO_FAULTS = "rule;rule;..."
    rule  = "seed=" INT                      # plan-wide RNG seed
          | site ":" action ":" pattern [":" param]...
    param = "arg=" FLOAT                     # action argument (seconds)
          | "times=" INT                     # fire at most N times
          | "p=" FLOAT                       # fire with probability p

Sites and the ``key`` they match ``pattern`` against (``fnmatch``):

* ``worker`` — entry of the per-class check task; key = class name;
* ``cache-put`` — after a cache entry is persisted;
  key = ``class/<content-key>``;
* ``store-write`` — inside :func:`repro.engine.store.atomic_write_text`
  after the payload landed in the temp file; key = the logical store
  name (``state``, ``class/<k>``); ``path`` = the temp
  file, so ``torn`` tears the payload *before* the rename publishes it;
* ``store-rename`` — same write, immediately before ``os.replace``;
* ``lock-acquire`` — entry of :meth:`repro.engine.locking.FileLock.acquire`;
  key = the lock name (``state``, the project state's lock, or
  ``daemon``, the ``repro serve`` daemon's hold on its directory);
* ``serve-accept`` — admission path of the ``repro serve`` daemon,
  fired before a submission is admitted; key = the tenant id;
* ``serve-dispatch`` — the daemon's dispatcher, fired after a job is
  journaled and immediately before it starts executing; key = the job
  id (``sigkill`` here models the daemon dying mid-dispatch, which the
  restart-recovery contract must survive);
* ``serve-respond`` — fired before the daemon writes an HTTP response;
  key = the request route (e.g. ``POST /v1/jobs``);
* ``remote-get`` / ``remote-put`` — fired by
  :class:`repro.engine.backends.remote.RemoteHTTPBackend` immediately
  before the corresponding HTTP request; key =
  ``class/<content-key>``.  Any raising action here surfaces as
  :class:`~repro.engine.backends.base.RemoteUnavailable`, which is how
  tests and CI rehearse flaky or dead remote caches (the tiered backend
  must degrade to local-only without changing a byte of any report).

Actions:

* ``delay`` — sleep ``arg`` seconds (default 0.05) before proceeding;
* ``raise`` — raise :class:`InjectedFault` (a transient worker error);
* ``kill``  — die like a crashed worker: ``os._exit`` in a process-pool
  child (the parent sees ``BrokenProcessPool``); in a thread worker,
  where exiting would take the whole interpreter down, raise
  :class:`WorkerKilled` instead;
* ``corrupt`` — truncate the just-written file at ``path`` (only
  meaningful at ``cache-put``; exercises cache self-healing);
* ``torn`` — truncate the file at ``path`` at byte offset ``arg``
  (default: half).  At ``store-write`` this models the power-cut tear
  that atomic rename cannot prevent: the rename still happens, so a
  syntactically broken — or torn-but-valid — payload becomes visible
  and only the checksum envelope catches it;
* ``enospc`` — raise ``OSError(ENOSPC)``, a full disk;
* ``rename-fail`` — raise ``OSError(EPERM)`` (meaningful at
  ``store-rename``: the write happened, publishing it failed);
* ``sigkill`` — ``SIGKILL`` the current process, exactly as if the OOM
  killer or the chaos harness struck at this sync point; nothing below
  this line runs, temp files are orphaned, locks are dropped by the OS;
* ``lock-timeout`` — raise :class:`InjectedLockTimeout`, which
  :meth:`~repro.engine.locking.FileLock.acquire` converts into its
  timed-out path without waiting out a real deadline.

**Determinism.**  Probabilistic rules do not consult a shared RNG whose
draws would depend on thread interleaving.  Each evaluation hashes
``(seed, rule index, site, key, per-rule evaluation count)``, so a given
schedule of calls produces the same fire/skip decisions on every run.
``times=N`` counters live in the plan object — note that process-pool
workers each import a fresh plan from the environment, so per-rule
counters are per-process there (use thread workers or unique patterns
when a test needs an exact global count).
"""

from __future__ import annotations

import errno
import fnmatch
import hashlib
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Environment variable carrying the fault spec; inherited by
#: process-pool workers, which is how faults reach them.
FAULTS_ENV = "REPRO_FAULTS"

#: Exit status used by the ``kill`` action in a process worker.
KILL_EXIT_CODE = 117

SITES = (
    "worker",
    "cache-put",
    "store-write",
    "store-rename",
    "lock-acquire",
    "serve-accept",
    "serve-dispatch",
    "serve-respond",
    "remote-get",
    "remote-put",
)
ACTIONS = (
    "delay",
    "raise",
    "kill",
    "corrupt",
    "torn",
    "enospc",
    "rename-fail",
    "sigkill",
    "lock-timeout",
)


class FaultSpecError(ValueError):
    """Raised on a malformed ``REPRO_FAULTS`` / ``--faults`` spec."""


class InjectedFault(RuntimeError):
    """A deliberately injected worker failure (the ``raise`` action)."""


class WorkerKilled(InjectedFault):
    """The ``kill`` action in a thread worker (no process to kill)."""


class InjectedLockTimeout(InjectedFault):
    """The ``lock-timeout`` action; :class:`repro.engine.locking.FileLock`
    converts it into a real :class:`~repro.engine.locking.LockTimeout`."""


@dataclass(frozen=True)
class FaultRule:
    """One parsed rule: *where*, *what*, *whom*, and *how often*."""

    site: str
    action: str
    pattern: str
    arg: float | None = None
    times: int | None = None
    p: float | None = None


class FaultPlan:
    """A parsed spec plus its firing state (counters are mutable)."""

    def __init__(self, rules: tuple[FaultRule, ...], seed: int = 0):
        self.rules = rules
        self.seed = seed
        self._fired = [0] * len(rules)
        self._evaluated = [0] * len(rules)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def fired(self, index: int | None = None) -> int:
        """Total firings (or the firings of one rule)."""
        if index is None:
            return sum(self._fired)
        return self._fired[index]

    def _decide(self, index: int, rule: FaultRule, site: str, key: str) -> bool:
        """Deterministically decide whether rule ``index`` fires now."""
        with self._lock:
            evaluation = self._evaluated[index]
            self._evaluated[index] += 1
            if rule.times is not None and self._fired[index] >= rule.times:
                return False
            if rule.p is not None:
                digest = hashlib.sha256(
                    f"{self.seed}:{index}:{site}:{key}:{evaluation}".encode()
                ).hexdigest()
                if int(digest, 16) % 1_000_000 >= rule.p * 1_000_000:
                    return False
            self._fired[index] += 1
            return True

    def fire(self, site: str, key: str, path: str | Path | None = None) -> None:
        """Inject every matching fault at call site ``site``.

        A ``raise``/``kill`` rule raises out of here, so later matching
        rules do not fire — just like a real crash would preempt them.
        """
        for index, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            if not fnmatch.fnmatchcase(key, rule.pattern):
                continue
            if not self._decide(index, rule, site, key):
                continue
            self._execute(rule, site, key, path)

    def _execute(
        self, rule: FaultRule, site: str, key: str, path: str | Path | None
    ) -> None:
        if rule.action == "delay":
            time.sleep(0.05 if rule.arg is None else rule.arg)
        elif rule.action == "raise":
            raise InjectedFault(f"injected fault at {site} for {key!r}")
        elif rule.action == "kill":
            if multiprocessing.parent_process() is not None:
                os._exit(KILL_EXIT_CODE)  # a process-pool child: die hard
            raise WorkerKilled(f"injected worker kill at {site} for {key!r}")
        elif rule.action == "corrupt":
            if path is not None:
                _truncate_file(Path(path))
        elif rule.action == "torn":
            if path is not None:
                offset = None if rule.arg is None else int(rule.arg)
                _truncate_file(Path(path), offset)
        elif rule.action == "enospc":
            raise OSError(
                errno.ENOSPC,
                f"injected ENOSPC at {site} for {key!r}",
            )
        elif rule.action == "rename-fail":
            raise OSError(
                errno.EPERM,
                f"injected rename failure at {site} for {key!r}",
            )
        elif rule.action == "sigkill":
            if hasattr(signal, "SIGKILL"):
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(KILL_EXIT_CODE)  # Windows: the closest thing
        elif rule.action == "lock-timeout":
            raise InjectedLockTimeout(
                f"injected lock timeout at {site} for {key!r}"
            )


def _truncate_file(path: Path, offset: int | None = None) -> None:
    """Leave the front of ``path`` behind — an interrupted write.

    ``offset=None`` keeps half the bytes (the classic ``corrupt``
    action); an explicit offset makes torn-write tests byte-precise.
    """
    try:
        data = path.read_bytes()
        cut = len(data) // 2 if offset is None else max(0, min(offset, len(data)))
        path.write_bytes(data[:cut])
    except OSError:
        pass


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------

def parse_faults(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec into a :class:`FaultPlan`."""
    rules: list[FaultRule] = []
    seed = 0
    for raw in spec.split(";"):
        text = raw.strip()
        if not text:
            continue
        if text.startswith("seed="):
            try:
                seed = int(text[len("seed="):])
            except ValueError:
                raise FaultSpecError(f"bad seed in fault rule: {text!r}")
            continue
        fields = text.split(":")
        if len(fields) < 3:
            raise FaultSpecError(
                f"fault rule needs site:action:pattern, got {text!r}"
            )
        site, action, pattern = fields[0], fields[1], fields[2]
        if site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {site!r} (expected one of {', '.join(SITES)})"
            )
        if action not in ACTIONS:
            raise FaultSpecError(
                f"unknown fault action {action!r} "
                f"(expected one of {', '.join(ACTIONS)})"
            )
        arg = times = p = None
        for param in fields[3:]:
            name, equals, value = param.partition("=")
            if not equals:
                raise FaultSpecError(f"bad fault parameter {param!r} in {text!r}")
            try:
                if name == "arg":
                    arg = float(value)
                elif name == "times":
                    times = int(value)
                elif name == "p":
                    p = float(value)
                else:
                    raise FaultSpecError(
                        f"unknown fault parameter {name!r} in {text!r}"
                    )
            except ValueError:
                raise FaultSpecError(f"bad fault parameter {param!r} in {text!r}")
        rules.append(
            FaultRule(
                site=site, action=action, pattern=pattern,
                arg=arg, times=times, p=p,
            )
        )
    return FaultPlan(tuple(rules), seed=seed)


def validate_environment() -> FaultPlan | None:
    """Parse-validate the ``REPRO_FAULTS`` environment spec *eagerly*.

    The environment spec is normally parsed lazily, on the first
    :func:`fire` call — which may happen deep inside a worker, turning a
    typo'd site name into a baffling mid-run quarantine.  Entry points
    (``repro check``, ``repro serve``) call this at startup instead, so
    an unknown site or action fails fast with the full list of valid
    ones.  Returns the parsed plan (or ``None`` when the variable is
    unset/empty); raises :class:`FaultSpecError` on a malformed spec.
    """
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return None
    return parse_faults(spec)


# ----------------------------------------------------------------------
# The active plan: programmatic install beats the environment
# ----------------------------------------------------------------------

_installed: FaultPlan | None = None
#: Cache of the plan parsed from the environment, keyed by the raw spec
#: string — firing counters must survive across `fire` calls, so the
#: spec is parsed once per distinct value, not once per call.
_env_cache: tuple[str, FaultPlan] | None = None
_state_lock = threading.Lock()


def install(plan: FaultPlan | None) -> None:
    """Set (or with ``None`` clear) the process-local active plan."""
    global _installed, _env_cache
    with _state_lock:
        _installed = plan
        _env_cache = None


def active_plan() -> FaultPlan | None:
    """The installed plan, else one parsed from ``REPRO_FAULTS``."""
    global _env_cache
    with _state_lock:
        if _installed is not None:
            return _installed
        spec = os.environ.get(FAULTS_ENV, "").strip()
        if not spec:
            return None
        if _env_cache is None or _env_cache[0] != spec:
            _env_cache = (spec, parse_faults(spec))
        return _env_cache[1]


def fire(site: str, key: str, path: str | Path | None = None) -> None:
    """Inject faults for ``(site, key)`` under the active plan, if any."""
    plan = active_plan()
    if plan is not None:
        plan.fire(site, key, path)


def _fresh_locks_in_child() -> None:
    """Replace every lock of this module in a forked child.

    A process-pool worker is forked from a parent that also runs
    threads (the write-behind uploader, the daemon's workers), and a
    lock one of them held at the fork stays held in the child, which
    has no thread left to release it: the worker's first ``fire``
    would wait forever.
    """
    global _state_lock
    _state_lock = threading.Lock()
    for plan in (_installed, _env_cache[1] if _env_cache else None):
        if plan is not None:
            plan._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_locks_in_child)
