"""The fault-tolerant parallel batch-verification engine.

Takes a parsed project (one :class:`ParsedModule`, possibly merged from
a directory), schedules its classes into topological waves over the
``@sys`` subsystem DAG (:mod:`repro.engine.scheduler`), and checks the
classes of each wave concurrently on a ``concurrent.futures`` pool.
Verification of a class is the pure function
:func:`repro.core.checker.check_parsed_class`, so workers share nothing
and the merged report is byte-identical to the serial
:class:`repro.core.checker.Checker` regardless of ``jobs``.

With an :class:`~repro.engine.cache.InferenceCache` attached, a class
whose verdict is cached (key: :func:`repro.engine.fingerprint.class_key`)
comes back with its diagnostics without re-running anything.  A warm
re-run of an unchanged project therefore performs no inference,
determinization or minimization at all — it parses, hashes and prints.

**Supervision** (docs/robustness.md).  Every class check runs under a
supervisor: a per-class wall-clock ``timeout``, a ``max_states``
resource budget threaded down to every state-exploration step, and
``retries`` with exponential backoff + deterministic jitter for
transient worker failures.  A killed process-pool worker
(``BrokenProcessPool``) respawns the pool and re-enqueues only the
unfinished classes (draining them one at a time so the poisonous class
is identified precisely).  A class that still fails after all attempts
is **quarantined**: it gets a structured ``ENGINE TIMEOUT`` /
``ENGINE BUDGET`` / ``ENGINE CRASH`` diagnostic in the report while
every healthy class's diagnostics stay byte-identical to a serial run.
Fault-injection hooks (:mod:`repro.engine.faults`) make each of these
paths testable on demand.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.behavior import class_exit_regexes
from repro.core.checker import check_parsed_class, module_diagnostics
from repro.core.diagnostics import (
    ENGINE_BUDGET,
    ENGINE_CRASH,
    ENGINE_TIMEOUT,
    CheckResult,
    engine_failure,
)
from repro.core.limits import BudgetExceeded, Limits
from repro.core.spec import ClassSpec
from repro.engine import faults
from repro.engine.backends import LocalDirBackend, RemoteHTTPBackend, TieredBackend
from repro.engine.cache import InferenceCache
from repro.engine.fingerprint import class_key
# Unused here: bound only because benchmarks/perf/layers.py wraps this name.
from repro.engine.fingerprint import method_key  # noqa: F401
from repro.engine.metrics import ClassTiming, EngineMetrics
from repro.engine.scheduler import prune_waves, schedule
from repro.engine.serialize import diagnostics_from_list, diagnostics_to_list
from repro.frontend.model_ast import ParsedClass, ParsedModule, SubsetViolation
from repro.frontend.project import parse_path
from repro.obs.tracer import NULL_TRACER, PHASES, Tracer

EXECUTORS = ("thread", "process")


class EngineError(ValueError):
    """Raised on invalid engine configuration."""


class EngineAborted(RuntimeError):
    """Raised by ``fail_fast`` runs on the first quarantined class."""

    def __init__(self, class_name: str, kind: str, detail: str):
        super().__init__(
            f"aborted (fail-fast): class {class_name} hit ENGINE "
            f"{kind.upper()}: {detail}"
        )
        self.class_name = class_name
        self.kind = kind
        self.detail = detail


# ----------------------------------------------------------------------
# The worker task (module-level so a process pool can pickle it)
# ----------------------------------------------------------------------

def _check_class_task(
    parsed: ParsedClass,
    scope: dict[str, ParsedClass],
    limits: Limits | None = None,
    trace: bool = False,
) -> dict[str, Any]:
    """Check one class; everything in and out is picklable.

    ``scope`` carries the parsed classes whose specs the check may read
    (the class itself plus its direct subsystem dependencies).

    A :class:`BudgetExceeded` trip is a *verdict about the input*, not a
    worker malfunction, so it comes back as a structured ``failure``
    payload rather than an exception — the supervisor quarantines it
    without burning retries.

    With ``trace`` on, the worker collects per-phase spans into a local
    tracer and ships the aggregate back as a plain ``phases`` dict —
    the picklable form that survives a process pool, which the
    coordinator grafts under the class's span.  A quarantined class
    still returns whatever phases completed before the budget tripped.
    """
    started = time.perf_counter()
    faults.fire("worker", parsed.name)
    tracer = Tracer() if trace else NULL_TRACER
    try:
        with tracer.span("phase", "infer"):
            exit_regexes = class_exit_regexes(parsed)
        specs: Mapping[str, ClassSpec] = {
            name: ClassSpec.of(cls) for name, cls in scope.items()
        }
        result, _dfa = check_parsed_class(
            parsed, specs, exit_regexes=exit_regexes, limits=limits,
            tracer=tracer,
        )
    except BudgetExceeded as error:
        kind = (
            ENGINE_TIMEOUT if error.resource == "wall-clock" else ENGINE_BUDGET
        )
        outcome: dict[str, Any] = {
            "class": parsed.name,
            "failure": {"kind": kind, "message": str(error)},
            "seconds": time.perf_counter() - started,
        }
        if trace:
            outcome["phases"] = tracer.phase_totals()
        return outcome
    outcome = {
        "class": parsed.name,
        "diagnostics": diagnostics_to_list(result.diagnostics),
        "seconds": time.perf_counter() - started,
    }
    if trace:
        outcome["phases"] = tracer.phase_totals()
    return outcome


# ----------------------------------------------------------------------
# Verification plans (the planner half of the planner/executor split)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationPlan:
    """A wave schedule: exactly what :meth:`BatchVerifier.execute` will
    run, and in which order.

    Produced by :meth:`BatchVerifier.plan` — topological waves over the
    subsystem DAG, already pruned to the ``only=`` restriction when one
    is set (incremental dirty sets, shard assignments).  Pruned waves
    keep their indices: an empty tuple in :attr:`waves` is a wave whose
    classes all run elsewhere, so wave numbering — and therefore every
    trace and timing — matches the unrestricted run.
    """

    waves: tuple[tuple[str, ...], ...]

    @property
    def scheduled(self) -> int:
        """How many classes this plan will execute."""
        return sum(len(wave) for wave in self.waves)

    @property
    def wave_count(self) -> int:
        """Non-empty waves (what the metrics report as ``waves``)."""
        return sum(1 for wave in self.waves if wave)

    def classes(self) -> frozenset[str]:
        return frozenset(name for wave in self.waves for name in wave)


# ----------------------------------------------------------------------
# Batch results
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BatchResult:
    """Everything one engine run produced."""

    module: ParsedModule
    module_result: CheckResult
    class_results: tuple[tuple[str, CheckResult], ...]
    metrics: EngineMetrics

    def merged(self) -> CheckResult:
        """One report, ordered exactly like ``Checker.check()``:
        module-level diagnostics first, then classes in source order."""
        result = CheckResult(diagnostics=list(self.module_result.diagnostics))
        for _name, class_result in self.class_results:
            result.extend(class_result)
        return result

    @property
    def ok(self) -> bool:
        return self.merged().ok

    def result_for(self, class_name: str) -> CheckResult | None:
        for name, class_result in self.class_results:
            if name == class_name:
                return class_result
        return None

    def quarantined(self) -> tuple[str, ...]:
        """Names of classes the supervisor gave up on, source order."""
        return tuple(
            name
            for name, class_result in self.class_results
            if any(
                diagnostic.code.startswith("engine-")
                for diagnostic in class_result.diagnostics
            )
        )


# ----------------------------------------------------------------------
# Supervisor bookkeeping
# ----------------------------------------------------------------------

@dataclass
class _Attempt:
    """One class working its way through the supervisor."""

    name: str
    key: str | None
    attempt: int = 0  # attempts already spent
    dispatched: float = 0.0


@dataclass
class _WaveCounters:
    """Mutable supervisor counters, accumulated across waves."""

    retries: int = 0
    quarantines: int = 0
    budget_trips: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    quarantined_names: list[str] = field(default_factory=list)


class _RunPool:
    """The one worker pool of a run.

    Made at the run's first pooled wave and shut down when the run
    ends.  It is replaced after it breaks, and after a class overruns
    its deadline, because the abandoned worker keeps its slot; futures
    already running on the old pool still finish there.
    """

    def __init__(self, make: Callable[[], Executor]):
        self._make = make
        self._pool: Executor | None = None

    def get(self) -> Executor:
        if self._pool is None:
            self._pool = self._make()
        return self._pool

    def replace(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    def __enter__(self) -> "_RunPool":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class BatchVerifier:
    """Verify a parsed project: DAG-scheduled, pooled, cached, supervised."""

    def __init__(
        self,
        module: ParsedModule,
        violations: list[SubsetViolation] | None = None,
        *,
        jobs: int = 1,
        executor: str = "thread",
        cache: InferenceCache | None = None,
        timeout: float | None = None,
        max_states: int | None = None,
        retries: int = 2,
        backoff: float = 0.05,
        fail_fast: bool = False,
        retry_seed: int = 0,
        tracer: Tracer | None = None,
        only: frozenset[str] | None = None,
    ):
        if jobs < 1:
            raise EngineError(f"jobs must be >= 1, got {jobs}")
        if executor not in EXECUTORS:
            raise EngineError(
                f"executor must be one of {', '.join(EXECUTORS)}; got {executor!r}"
            )
        if timeout is not None and timeout <= 0:
            raise EngineError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise EngineError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise EngineError(f"backoff must be >= 0, got {backoff}")
        self.module = module
        self.violations = list(violations or [])
        self.jobs = jobs
        self.executor = executor
        self.cache = cache
        self.timeout = timeout
        self.max_states = max_states
        self.retries = retries
        self.backoff = backoff
        self.fail_fast = fail_fast
        self.retry_seed = retry_seed
        #: Restrict the run to these classes (incremental re-verification,
        #: docs/incremental.md): waves are pruned but keep their indices,
        #: and classes outside the set are absent from the result —
        #: the caller splices their verdicts from the project state.
        if only is not None:
            known = set(module.class_names())
            unknown = sorted(set(only) - known)
            if unknown:
                raise EngineError(
                    f"only= names classes not in the module: {', '.join(unknown)}"
                )
            only = frozenset(only)
        self.only = only
        #: The run's tracer (docs/observability.md); the no-op singleton
        #: by default, so untraced runs stay on the fast path.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.cache is not None and self.tracer.enabled:
            self.cache.tracer = self.tracer

    # ------------------------------------------------------------------

    def _make_pool(self, width: int) -> Executor:
        workers = min(self.jobs, width)
        if self.executor == "process":
            return ProcessPoolExecutor(max_workers=workers)
        return ThreadPoolExecutor(max_workers=workers)

    def _scope_for(self, parsed: ParsedClass) -> dict[str, ParsedClass]:
        """The class itself plus its direct subsystem dependencies —
        the only specs :func:`check_parsed_class` can consult."""
        scope = {parsed.name: parsed}
        for declaration in parsed.subsystems:
            dependency = self.module.get_class(declaration.class_name)
            if dependency is not None:
                scope[dependency.name] = dependency
        return scope

    def _limits(self) -> Limits:
        return Limits(max_states=self.max_states, timeout=self.timeout)

    def _backoff_delay(self, name: str, attempt: int) -> float:
        """Exponential backoff with deterministic per-(class, attempt)
        jitter, so reruns of one schedule sleep identically."""
        if self.backoff == 0:
            return 0.0
        jitter = random.Random(
            f"{self.retry_seed}:{name}:{attempt}"
        ).uniform(0.0, self.backoff)
        return self.backoff * (2 ** (attempt - 1)) + jitter

    # -- failure plumbing ----------------------------------------------

    @staticmethod
    def _failure_outcome(
        attempt: _Attempt, kind: str, message: str, seconds: float
    ) -> dict[str, Any]:
        return {
            "class": attempt.name,
            "failure": {
                "kind": kind,
                "message": message,
                "attempts": attempt.attempt,
            },
            "seconds": seconds,
        }

    # -- inline execution (no pool): jobs/wave width of one, no timeout

    def _execute_inline(
        self,
        pending: list[_Attempt],
        tasks: Mapping[str, tuple],
        counters: _WaveCounters,
    ) -> dict[str, dict[str, Any]]:
        limits = self._limits()
        trace = self.tracer.enabled
        raw: dict[str, dict[str, Any]] = {}
        for attempt in pending:
            while True:
                attempt.attempt += 1
                started = time.perf_counter()
                try:
                    outcome = _check_class_task(
                        *tasks[attempt.name], limits, trace
                    )
                except Exception as error:  # noqa: BLE001 - quarantine path
                    if attempt.attempt > self.retries:
                        raw[attempt.name] = self._failure_outcome(
                            attempt,
                            ENGINE_CRASH,
                            f"{type(error).__name__}: {error}",
                            time.perf_counter() - started,
                        )
                        break
                    counters.retries += 1
                    self.tracer.event(
                        "retry", cls=attempt.name, attempt=attempt.attempt
                    )
                    time.sleep(self._backoff_delay(attempt.name, attempt.attempt))
                    continue
                if "failure" in outcome:
                    outcome["failure"]["attempts"] = attempt.attempt
                    if outcome["failure"]["kind"] == ENGINE_TIMEOUT:
                        counters.timeouts += 1
                raw[attempt.name] = outcome
                break
        return raw

    # -- pooled execution with the full supervisor ---------------------

    def _execute_pooled(
        self,
        pending: list[_Attempt],
        tasks: Mapping[str, tuple],
        counters: _WaveCounters,
        pool: _RunPool,
    ) -> dict[str, dict[str, Any]]:
        limits = self._limits()
        trace = self.tracer.enabled
        workers = min(self.jobs, len(pending))
        raw: dict[str, dict[str, Any]] = {}
        ready: deque[_Attempt] = deque(pending)
        waiting: list[tuple[float, _Attempt]] = []
        inflight: dict[Future, tuple[_Attempt, float | None]] = {}
        # After a pool break, drain one class at a time so the next
        # break is attributable to exactly one class.
        serial_mode = False

        def requeue(attempt: _Attempt, kind: str, message: str) -> None:
            """Charge one attempt; retry with backoff or quarantine."""
            if attempt.attempt > self.retries:
                raw[attempt.name] = self._failure_outcome(
                    attempt, kind, message,
                    time.monotonic() - attempt.dispatched,
                )
                return
            counters.retries += 1
            self.tracer.event("retry", cls=attempt.name, attempt=attempt.attempt)
            waiting.append(
                (
                    time.monotonic()
                    + self._backoff_delay(attempt.name, attempt.attempt),
                    attempt,
                )
            )

        while ready or waiting or inflight:
            now = time.monotonic()
            if waiting:
                still_waiting = []
                for eligible, attempt in waiting:
                    if eligible <= now:
                        ready.append(attempt)
                    else:
                        still_waiting.append((eligible, attempt))
                waiting[:] = still_waiting
            capacity = 1 if serial_mode else workers
            while ready and len(inflight) < capacity:
                attempt = ready.popleft()
                attempt.attempt += 1
                attempt.dispatched = time.monotonic()
                try:
                    future = pool.get().submit(
                        _check_class_task, *tasks[attempt.name], limits, trace
                    )
                except (BrokenExecutor, RuntimeError) as error:
                    # The pool died between waves of submissions.
                    pool.replace()
                    counters.pool_restarts += 1
                    self.tracer.event("pool-restart", at="submit")
                    serial_mode = True
                    requeue(
                        attempt,
                        ENGINE_CRASH,
                        f"worker pool broken at submit: {error}",
                    )
                    continue
                deadline = (
                    None
                    if self.timeout is None
                    else attempt.dispatched + self.timeout
                )
                inflight[future] = (attempt, deadline)

            if not inflight:
                if waiting:
                    pause = min(e for e, _ in waiting) - time.monotonic()
                    if pause > 0:
                        time.sleep(pause)
                continue

            bounds = [d for _, d in inflight.values() if d is not None]
            bounds.extend(e for e, _ in waiting)
            wait_timeout = None
            if bounds:
                wait_timeout = max(0.0, min(bounds) - time.monotonic())
            done, _ = wait(
                set(inflight), timeout=wait_timeout,
                return_when=FIRST_COMPLETED,
            )

            broken: list[_Attempt] = []
            for future in done:
                attempt, _deadline = inflight.pop(future)
                try:
                    outcome = future.result()
                except BrokenExecutor:
                    broken.append(attempt)
                except Exception as error:  # noqa: BLE001 - quarantine path
                    requeue(
                        attempt,
                        ENGINE_CRASH,
                        f"{type(error).__name__}: {error}",
                    )
                else:
                    if "failure" in outcome:
                        outcome["failure"]["attempts"] = attempt.attempt
                        if outcome["failure"]["kind"] == ENGINE_TIMEOUT:
                            counters.timeouts += 1
                    raw[attempt.name] = outcome

            if broken:
                # Every other in-flight future died with the pool.
                for future, (attempt, _deadline) in inflight.items():
                    future.cancel()
                    broken.append(attempt)
                inflight.clear()
                pool.replace()
                counters.pool_restarts += 1
                self.tracer.event("pool-restart", at="result")
                if len(broken) == 1:
                    # Sole suspect: the crash is attributable.
                    requeue(
                        broken[0],
                        ENGINE_CRASH,
                        "worker process died (BrokenProcessPool)",
                    )
                else:
                    # Ambiguous: re-enqueue everyone uncharged and
                    # switch to serial draining for attribution.
                    for attempt in broken:
                        attempt.attempt -= 1
                        ready.append(attempt)
                serial_mode = True
                continue

            now = time.monotonic()
            overran = False
            for future in list(inflight):
                attempt, deadline = inflight[future]
                if deadline is not None and now >= deadline:
                    del inflight[future]
                    future.cancel()
                    counters.timeouts += 1
                    self.tracer.event("timeout", cls=attempt.name)
                    requeue(
                        attempt,
                        ENGINE_TIMEOUT,
                        f"exceeded the {self.timeout}s per-class "
                        "wall-clock deadline",
                    )
                    overran = True
            if overran:
                pool.replace()
        return raw

    # ------------------------------------------------------------------

    def plan(self) -> VerificationPlan:
        """The planner half: the wave schedule this verifier would run.

        Pure and cheap — no pools, no cache traffic — so a shard
        coordinator can deal it out (:mod:`repro.engine.shard`).
        """
        waves = schedule(self.module)
        if self.only is not None:
            waves = prune_waves(waves, self.only)
        return VerificationPlan(waves=tuple(tuple(wave) for wave in waves))

    def run(self) -> BatchResult:
        return self.execute(self.plan())

    def execute(self, plan: VerificationPlan) -> BatchResult:
        """The executor half: run a previously computed plan.

        The plan must name only classes this module has; normally it
        comes from :meth:`plan`.
        """
        started = time.perf_counter()
        classes_by_name = {parsed.name: parsed for parsed in self.module.classes}
        unknown = sorted(plan.classes() - set(classes_by_name))
        if unknown:
            raise EngineError(
                f"plan names classes not in the module: {', '.join(unknown)}"
            )
        waves = plan.waves
        scheduled = plan.scheduled

        outcomes: dict[str, CheckResult] = {}
        timings: list[ClassTiming] = []
        counters = _WaveCounters()
        class_hits = class_misses = cache_writes = 0

        widest = max(map(len, waves), default=1)
        # The span deliberately omits jobs/executor: the exported trace
        # is byte-stable across job counts (modulo durations); the run
        # configuration lives in the metrics payload instead.
        with self.tracer.span(
            "run",
            "run",
            classes=scheduled,
            waves=sum(1 for wave in waves if wave),
        ), _RunPool(lambda: self._make_pool(widest)) as pool:
            for wave_index, wave in enumerate(waves):
                if not wave:  # fully pruned by an incremental plan
                    continue
                with self.tracer.span(
                    "wave", f"wave-{wave_index}", index=wave_index,
                    classes=len(wave),
                ) as wave_span:
                    hits, misses, writes = self._run_wave(
                        wave, wave_index, classes_by_name,
                        outcomes, timings, counters, wave_span, pool,
                    )
                    class_hits += hits
                    class_misses += misses
                    cache_writes += writes

        ordered = tuple(
            (parsed.name, outcomes[parsed.name])
            for parsed in self.module.classes
            if parsed.name in outcomes
        )
        metrics = EngineMetrics(
            classes=scheduled,
            waves=sum(1 for wave in waves if wave),
            jobs=self.jobs,
            executor=self.executor,
            wall_seconds=time.perf_counter() - started,
            class_hits=class_hits,
            class_misses=class_misses,
            cache_writes=cache_writes,
            timings=tuple(sorted(timings, key=lambda t: (t.wave, t.class_name))),
            **cache_counters(self.cache),
            retries=counters.retries,
            quarantines=counters.quarantines,
            budget_trips=counters.budget_trips,
            timeouts=counters.timeouts,
            pool_restarts=counters.pool_restarts,
        )
        return BatchResult(
            module=self.module,
            module_result=module_diagnostics(self.module, self.violations),
            class_results=ordered,
            metrics=metrics,
        )

    def _run_wave(
        self,
        wave: tuple[str, ...],
        wave_index: int,
        classes_by_name: dict[str, ParsedClass],
        outcomes: dict[str, CheckResult],
        timings: list[ClassTiming],
        counters: _WaveCounters,
        wave_span,
        pool: _RunPool,
    ) -> tuple[int, int, int]:
        """Verify one wave; returns the class hits, misses and cache
        writes it added.

        ``wave_span`` receives one recorded ``class`` span per class —
        in the schedule's (sorted) order, so the exported tree is
        deterministic regardless of completion order — each carrying
        exactly the :data:`~repro.obs.PHASES` children.  Phases a class
        did not execute are present with a non-``ok`` status, so cached
        and quarantined classes produce the same tree *structure* as
        checked ones.
        """
        class_hits = class_misses = cache_writes = 0
        #: class name -> (status, seconds, worker phase totals)
        trace_info: dict[str, tuple[str, float, dict[str, Any]]] = {}

        pending: list[_Attempt] = []
        for name in wave:
            parsed = classes_by_name[name]
            key: str | None = None
            if self.cache is not None:
                lookup_started = time.perf_counter()
                key = class_key(parsed, classes_by_name)
                payload = self.cache.get(key)
                if payload is not None:
                    try:
                        diagnostics = diagnostics_from_list(
                            payload["diagnostics"]
                        )
                    except (KeyError, TypeError, ValueError):
                        diagnostics = None
                    if diagnostics is not None:
                        lookup_seconds = time.perf_counter() - lookup_started
                        outcomes[name] = CheckResult(diagnostics=diagnostics)
                        class_hits += 1
                        trace_info[name] = ("cached", lookup_seconds, {})
                        timings.append(
                            ClassTiming(
                                class_name=name,
                                seconds=lookup_seconds,
                                from_cache=True,
                                wave=wave_index,
                            )
                        )
                        continue
            pending.append(_Attempt(name=name, key=key))

        raw: dict[str, dict[str, Any]] = {}
        if pending:
            class_misses += len(pending)

            tasks = {
                attempt.name: (
                    classes_by_name[attempt.name],
                    self._scope_for(classes_by_name[attempt.name]),
                )
                for attempt in pending
            }
            if self.timeout is None and (self.jobs == 1 or len(pending) == 1):
                raw = self._execute_inline(pending, tasks, counters)
            else:
                raw = self._execute_pooled(pending, tasks, counters, pool)

            for attempt in pending:
                name, key = attempt.name, attempt.key
                outcome = raw[name]
                failure = outcome.get("failure")
                if failure is not None:
                    counters.quarantines += 1
                    counters.quarantined_names.append(name)
                    if failure["kind"] == ENGINE_BUDGET:
                        counters.budget_trips += 1
                    self.tracer.event(
                        "quarantine", cls=name, kind=failure["kind"]
                    )
                    outcomes[name] = CheckResult(
                        diagnostics=[
                            engine_failure(
                                failure["kind"],
                                name,
                                failure["message"],
                                attempts=failure.get("attempts", 1),
                            )
                        ]
                    )
                    trace_info[name] = (
                        "quarantined",
                        outcome["seconds"],
                        outcome.get("phases", {}),
                    )
                    timings.append(
                        ClassTiming(
                            class_name=name,
                            seconds=outcome["seconds"],
                            from_cache=False,
                            wave=wave_index,
                            quarantined=True,
                        )
                    )
                    continue
                outcomes[name] = CheckResult(
                    diagnostics=diagnostics_from_list(outcome["diagnostics"])
                )
                trace_info[name] = (
                    "ok", outcome["seconds"], outcome.get("phases", {})
                )
                timings.append(
                    ClassTiming(
                        class_name=name,
                        seconds=outcome["seconds"],
                        from_cache=False,
                        wave=wave_index,
                    )
                )
                if self.cache is not None and key is not None:
                    # A pure function of the key: concurrent writers of
                    # one entry must produce identical bytes, so no
                    # timings go in.
                    self.cache.put(
                        key, {"class": name, "diagnostics": outcome["diagnostics"]}
                    )
                    cache_writes += 1

        if self.tracer.enabled:
            self._graft_class_spans(wave, wave_index, wave_span, trace_info)

        if self.fail_fast and counters.quarantined_names:
            name = counters.quarantined_names[0]
            failure = raw[name]["failure"]
            raise EngineAborted(name, failure["kind"], failure["message"])

        return class_hits, class_misses, cache_writes

    @staticmethod
    def _graft_class_spans(
        wave: tuple[str, ...],
        wave_index: int,
        wave_span,
        trace_info: dict[str, tuple[str, float, dict[str, Any]]],
    ) -> None:
        """Record one ``class`` span per class, in schedule order.

        The schedule sorts each wave, so grafting in ``wave`` order makes
        the exported tree independent of completion order.  Worker-side
        phase timings arrive as the picklable ``phases`` dict; phases
        with no measurement are still emitted, carrying the class's
        default status (``cached`` / ``quarantined`` / ``skipped``), so
        every class produces the same tree shape.
        """
        for name in wave:
            status, seconds, phases = trace_info[name]
            class_span = wave_span.child(
                "class", name, seconds=seconds, status=status, wave=wave_index
            )
            default = status if status in ("cached", "quarantined") else "skipped"
            for phase in PHASES:
                measured = phases.get(phase)
                if measured is None:
                    class_span.child("phase", phase, status=default)
                else:
                    class_span.child(
                        "phase",
                        phase,
                        seconds=measured["seconds"],
                        status="ok",
                        **measured.get("attrs", {}),
                    )


# ----------------------------------------------------------------------
# Convenience entry points
# ----------------------------------------------------------------------

def cache_counters(cache: InferenceCache | None) -> dict[str, int]:
    """The cache's persistence counters, as :class:`EngineMetrics` fields.

    They are cumulative over the cache's life, so a caller that drains
    deferred uploads after a run (:meth:`InferenceCache.flush`) reads
    them again to report every upload the run queued.
    """
    if cache is None:
        return {}
    stats = cache.stats
    return {
        "corrupt_entries": stats.corrupt_entries,
        "checksum_failures": stats.checksum_failures,
        "write_failures": stats.write_failures,
        "orphans_removed": stats.orphans_removed,
        "remote_hits": stats.remote_hits,
        "remote_misses": stats.remote_misses,
        "remote_puts": stats.remote_puts,
        "remote_errors": stats.remote_errors,
        "remote_degraded": stats.remote_degraded,
    }


def verify_path(path: str | Path, **engine: Any) -> BatchResult:
    """Parse a file or project directory and run the batch engine;
    takes every :class:`BatchVerifier` keyword (``jobs``, ``cache``, ...)."""
    return BatchVerifier(*parse_path(path), **engine).run()


def open_cache(cache_dir: str | Path, remote: str | None = None) -> InferenceCache:
    """The persistent inference cache under ``cache_dir``: how every
    command and the serve daemon open it.

    With ``remote``, the endpoint of a ``repro cache serve`` daemon, a
    shared HTTP tier is layered over the local directory (read-through,
    write-behind, degrading to local-only when the remote misbehaves;
    docs/distributed.md).  A ``remote`` that is not an http:// or
    https:// URL, or a ``cache_dir`` that cannot be created (a file is
    in the way), raises :class:`EngineError`.
    """
    if remote is not None and not remote.startswith(("http://", "https://")):
        raise EngineError(
            f"remote cache must be an http:// or https:// URL, got {remote!r}"
        )
    try:
        backend = LocalDirBackend(Path(cache_dir))
    except OSError as error:
        raise EngineError(f"cannot use cache directory {cache_dir}: {error}") from None
    if remote is not None:
        backend = TieredBackend(backend, RemoteHTTPBackend(remote))
    return InferenceCache(backend=backend)
