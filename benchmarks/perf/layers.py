"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``.  It wraps the public functions that
form each layer boundary, at the name the caller looks up: callers bind
names at import time, so ``check_claims`` is wrapped as
``repro.core.checker.check_claims``, where the checker calls it, not in
``repro.core.claims``.  Each wrapper opens a span on a per-thread stack;
a span knows its parent and the request it belongs to.

Self time is folded in when a span closes (its duration minus the time
of its direct children), so memory stays flat however long a run is.
Spans that cross threads are handled at one place: work submitted to a
``ThreadPoolExecutor`` runs as a child of the span that submitted it,
which is how the serve daemon's per-class checks land under their job.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable


class Span:
    __slots__ = ("id", "name", "rid", "parent", "start", "child_time")

    def __init__(self, id: int, name: str, rid: Any, parent: "Span | None"):
        self.id = id
        self.name = name
        self.rid = rid
        self.parent = parent
        self.child_time = 0.0
        self.start = 0.0


class Recorder:
    """Spans and counters of one process, folded per request id.

    ``self_seconds[(rid, name)]`` sums self time, ``root_seconds[(rid,
    name)]`` sums the full duration of spans opened with no parent, and
    ``counts[(rid, name)]`` sums counters.  With ``keep=True`` every span
    is also kept for ``--trace-out``.
    """

    def __init__(self, keep: bool = False):
        self.self_seconds: dict[tuple[Any, str], float] = defaultdict(float)
        self.root_seconds: dict[tuple[Any, str], float] = defaultdict(float)
        self.counts: dict[tuple[Any, str], float] = defaultdict(float)
        self.kept: list[dict[str, Any]] | None = [] if keep else None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, rid: Any = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            next(self._ids), name, parent.rid if parent is not None else rid, parent
        )
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        end = time.perf_counter()
        self._stack().pop()
        duration = end - span.start
        with self._lock:
            if span.parent is not None:
                span.parent.child_time += duration
            else:
                self.root_seconds[(span.rid, span.name)] += duration
            self.self_seconds[(span.rid, span.name)] += duration - span.child_time
            if self.kept is not None:
                self.kept.append(
                    {
                        "id": span.id,
                        "parent": None if span.parent is None else span.parent.id,
                        "name": span.name,
                        "rid": span.rid,
                        "start": span.start,
                        "end": end,
                        "pid": os.getpid(),
                        "thread": threading.get_ident(),
                    }
                )

    def count(self, rid: Any, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[(rid, name)] += value

    def adopt(self, parent: Span) -> None:
        """Make ``parent`` the current span of this thread (cross-thread work)."""
        self._stack().append(parent)

    def release(self) -> None:
        self._stack().pop()

    # -- export ------------------------------------------------------------

    def dump(self) -> dict[str, Any]:
        """Plain data: per-request folds (and kept spans)."""
        def rows(table):
            return [[rid, name, value] for (rid, name), value in table.items()]

        return {
            "self": rows(self.self_seconds),
            "root": rows(self.root_seconds),
            "counts": rows(self.counts),
            "spans": self.kept or [],
        }

    def absorb(self, dump: dict[str, Any], rename: Callable[[Any], Any]) -> None:
        """Fold another process's :meth:`dump` in, mapping its request ids."""
        for table, key in (
            (self.self_seconds, "self"),
            (self.root_seconds, "root"),
            (self.counts, "counts"),
        ):
            for rid, name, value in dump[key]:
                table[(rename(rid), name)] += value
        if self.kept is not None:
            self.kept.extend(dump["spans"])

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.kept or []:
                stream.write(json.dumps(span, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------

# Counter hooks: ``count(metric, value)`` books against the call's request.

def _job_rid(args, _kwargs):
    return args[1].id  # JobJournal.record(self, job) / write_spool(self, job, files)


def _count_file(count, _args, _kwargs, _result) -> None:
    count("frontend.files")


def _count_class(count, _args, _kwargs, result) -> None:
    count("core.classes")
    dfa = result[1]
    if dfa is not None:
        states = getattr(dfa, "n", None)
        count("core.dfa_states", states if states is not None else len(dfa.states))


def _count_dirty(count, _args, _kwargs, plan) -> None:
    count("engine.incremental.dirty", len(plan.dirty))
    count("engine.incremental.reuse_ratio", plan.reuse_ratio)


def _count_write(count, args, kwargs, _result) -> None:
    text = args[1] if len(args) > 1 else kwargs["text"]
    count("engine.store.writes")
    count("engine.store.bytes", len(text.encode("utf-8")))


def _count_get(count, args, kwargs, payload) -> None:
    count("engine.cache.gets")
    count("engine.cache.hits", payload is not None)
    namespace = args[1] if len(args) > 1 else kwargs["namespace"]
    if namespace == "method":
        count("engine.cache.method_gets")
        count("engine.cache.method_hits", payload is not None)


def _count_retries(count, _args, _kwargs, batch) -> None:
    count("engine.retries", batch.metrics.retries + batch.metrics.quarantines)


def _count_journal(count, _args, _kwargs, _result) -> None:
    count("serve.journal.writes")


@dataclass(frozen=True)
class Boundary:
    """One wrapped callable: ``module`` + dotted ``attr`` (``Class.method``).

    ``span`` names the layer metric its self time goes to (``None``:
    count only); ``rid`` derives a request id when the call opens a new
    tree; ``after(count, args, kwargs, result)`` turns the call into
    counters of its request.
    """

    module: str
    attr: str
    span: str | None = None
    rid: Callable | None = None
    after: Callable | None = None


BOUNDARIES = (
    # repro.frontend
    Boundary("repro.frontend.project", "parse_project", "frontend.parse"),
    Boundary("repro.frontend.project", "parse_file", after=_count_file),
    Boundary("repro.mine.api", "parse_module", "frontend.parse", after=_count_file),
    # repro.core, where repro.core.checker calls it
    Boundary("repro.core.checker", "lint_spec", "core.lint"),
    Boundary("repro.core.checker", "check_invocations", "core.dependency"),
    Boundary("repro.core.checker", "check_match_exhaustiveness", "core.dependency"),
    Boundary("repro.core.checker", "behavior_nfa", "core.infer"),
    Boundary("repro.core.behavior", "operation_exit_regexes", "core.infer"),
    Boundary("repro.automata.kernel", "KernelCheck.behavior_dfa", "core.determinize"),
    Boundary("repro.core.checker", "check_subsystem_usage", "core.usage"),
    Boundary("repro.core.checker", "check_claims", "core.claims"),
    Boundary("repro.core.checker", "check_claim_vacuity", "core.vacuity"),
    Boundary("repro.engine.engine", "check_parsed_class", after=_count_class),
    # repro.engine
    Boundary("repro.engine.engine", "BatchVerifier.plan", "engine.plan"),
    Boundary("repro.engine.engine", "BatchVerifier.execute", after=_count_retries),
    Boundary("repro.engine.engine", "class_key", "engine.fingerprint"),
    Boundary("repro.engine.engine", "method_key", "engine.fingerprint"),
    Boundary("repro.engine.incremental", "class_fingerprint", "engine.fingerprint"),
    Boundary("repro.engine.incremental", "spec_fingerprint", "engine.fingerprint"),
    Boundary("repro.engine.incremental", "load_state", "engine.state.load"),
    Boundary("repro.engine.incremental", "save_state", "engine.state.save"),
    Boundary("repro.engine.incremental", "plan_incremental",
             "engine.incremental.plan", after=_count_dirty),
    Boundary("repro.engine.store", "atomic_write_text", "engine.store.write",
             after=_count_write),
    Boundary("repro.engine.locking", "FileLock.acquire", "engine.lock.wait"),
    Boundary("repro.engine.cache", "InferenceCache.get", "engine.cache.get",
             after=_count_get),
    Boundary("repro.engine.cache", "InferenceCache.put", "engine.cache.put"),
    Boundary("repro.engine.engine", "BatchResult.merged", "engine.report"),
    Boundary("repro.core.diagnostics", "CheckResult.format", "engine.report"),
    # repro.serve (inside the daemon)
    Boundary("repro.serve.service", "execute_job", "serve.exec",
             rid=lambda args, _kwargs: args[1]),
    Boundary("repro.serve.jobs", "JobJournal.record", "serve.journal",
             rid=_job_rid, after=_count_journal),
    Boundary("repro.serve.jobs", "JobJournal.write_spool", "serve.journal",
             rid=_job_rid, after=_count_journal),
    # repro.mine / repro.runtime
    Boundary("repro.mine.api", "load_implementations", "mine.load"),
    Boundary("repro.mine.api", "collect_corpus", "mine.collect"),
    Boundary("repro.mine.api", "mine_corpus", "mine.learn"),
    Boundary("repro.mine.api", "diff_mined", "mine.diff"),
)


def _wrap(rec: Recorder, fn: Callable, boundary: Boundary) -> Callable:
    name, rid_of, after = boundary.span, boundary.rid, boundary.after

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        top = rec.current()
        if top is not None:
            rid = top.rid
        else:
            rid = None if rid_of is None else rid_of(args, kwargs)
        if name is None:
            result = fn(*args, **kwargs)
        else:
            span = rec.open(name, rid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span)
        if after is not None:
            after(lambda metric, value=1: rec.count(rid, metric, value),
                  args, kwargs, result)
        return result

    return wrapper


def _adopting_submit(rec: Recorder, submit: Callable) -> Callable:
    @functools.wraps(submit)
    def wrapper(self, fn, /, *args, **kwargs):
        parent = rec.current()
        if parent is None:
            return submit(self, fn, *args, **kwargs)

        def adopted(*inner_args, **inner_kwargs):
            rec.adopt(parent)
            try:
                return fn(*inner_args, **inner_kwargs)
            finally:
                rec.release()

        return submit(self, adopted, *args, **kwargs)

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every :data:`BOUNDARIES` entry, and thread-pool submission,
    for the life of the process."""
    for boundary in BOUNDARIES:
        owner = importlib.import_module(boundary.module)
        *path, attr = boundary.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, attr, _wrap(rec, owner.__dict__[attr], boundary))
    ThreadPoolExecutor.submit = _adopting_submit(rec, ThreadPoolExecutor.submit)
