"""Sharded verification: split one project across worker processes.

The other half of the planner/executor split (docs/distributed.md).
A :class:`~repro.engine.engine.VerificationPlan` is computed once, its
waves are dealt round-robin into :class:`ShardPlan` slices, each slice
runs on an independent worker (``repro check --shards N
--shard-index i``, usually with a shared remote cache), and
:func:`merge_shard_results` reassembles the per-shard outputs into a
:class:`~repro.engine.engine.BatchResult` whose merged report is
**byte-identical** to the serial run — diagnostics are pure functions
of each class, so only coverage and ordering need proving, and both are
checked at merge time.

Why round-robin *within each wave*: waves are the schedule's sorted
dependency layers, so dealing positions ``0, 1, 2, ...`` of every wave
across shards balances each layer's width instead of handing one shard
a whole layer.  The assignment depends only on the schedule (itself a
pure function of the parsed module), never on timing or host — every
coordinator computes the same slices.

:func:`coordinate` is the in-process driver used by ``repro
coordinate``: it fans worker subprocesses out, one per shard, and
merges their ``--shard-out`` files.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.core.checker import module_diagnostics
from repro.core.diagnostics import CheckResult
from repro.engine.engine import (
    BatchResult,
    BatchVerifier,
    EngineError,
    VerificationPlan,
)
from repro.engine.metrics import ClassTiming, EngineMetrics
from repro.engine.serialize import diagnostics_from_list, diagnostics_to_list
from repro.frontend.model_ast import ParsedModule, SubsetViolation
from repro.frontend.project import parse_path

#: Bumped when the serialized shard-result shape changes.
SHARD_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ShardPlan:
    """One shard's slice of a :class:`VerificationPlan`.

    Carries the *full* wave schedule plus this shard's class set; the
    worker prunes the waves to its classes (indices preserved), so wave
    numbers in timings and traces agree across every shard and with the
    serial run.
    """

    shards: int
    index: int
    waves: tuple[tuple[str, ...], ...]
    classes: frozenset[str]

    @property
    def scheduled(self) -> int:
        return len(self.classes)

    def shard_waves(self) -> tuple[tuple[str, ...], ...]:
        """The full schedule pruned to this shard, indices preserved."""
        return tuple(
            tuple(name for name in wave if name in self.classes)
            for wave in self.waves
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "shard_format": SHARD_FORMAT_VERSION,
            "shards": self.shards,
            "index": self.index,
            "waves": [list(wave) for wave in self.waves],
            "classes": sorted(self.classes),
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "ShardPlan":
        if not isinstance(payload, Mapping):
            raise EngineError("malformed shard plan: not a mapping")
        if payload.get("shard_format") != SHARD_FORMAT_VERSION:
            raise EngineError(
                f"shard plan version skew: got {payload.get('shard_format')!r}"
            )
        return ShardPlan(
            shards=int(payload["shards"]),
            index=int(payload["index"]),
            waves=tuple(tuple(wave) for wave in payload["waves"]),
            classes=frozenset(payload["classes"]),
        )


def plan_shards(
    module: ParsedModule,
    shards: int,
    *,
    only: frozenset[str] | None = None,
) -> tuple[ShardPlan, ...]:
    """Deal the module's wave schedule into ``shards`` deterministic slices."""
    if shards < 1:
        raise EngineError(f"shards must be >= 1, got {shards}")
    plan = BatchVerifier(module, only=only).plan()
    assigned: list[set[str]] = [set() for _ in range(shards)]
    for wave in plan.waves:
        for position, name in enumerate(wave):
            assigned[position % shards].add(name)
    return tuple(
        ShardPlan(
            shards=shards,
            index=index,
            waves=plan.waves,
            classes=frozenset(classes),
        )
        for index, classes in enumerate(assigned)
    )


def run_shard(
    module: ParsedModule,
    violations: list[SubsetViolation] | None,
    plan: ShardPlan,
    **engine_kwargs: Any,
) -> BatchResult:
    """Execute one shard's slice locally; accepts every
    :class:`BatchVerifier` keyword (``jobs``, ``cache``, ...)."""
    verifier = BatchVerifier(
        module, violations, only=plan.classes, **engine_kwargs
    )
    return verifier.execute(
        VerificationPlan(waves=plan.shard_waves(), only=plan.classes)
    )


# ----------------------------------------------------------------------
# Shard-result serialization (what --shard-out writes)
# ----------------------------------------------------------------------

_METRIC_SUMS = (
    "class_hits", "class_misses", "method_hits", "method_misses",
    "cache_writes", "corrupt_entries", "retries", "quarantines",
    "budget_trips", "timeouts", "pool_restarts", "checksum_failures",
    "write_failures", "lock_waits", "lock_timeouts", "orphans_removed",
    "remote_hits", "remote_misses", "remote_puts", "remote_errors",
    "remote_degraded",
)


def shard_result_to_dict(plan: ShardPlan, batch: BatchResult) -> dict[str, Any]:
    """Serialize one shard's output for the coordinator."""
    metrics = batch.metrics
    return {
        "shard_format": SHARD_FORMAT_VERSION,
        "shards": plan.shards,
        "index": plan.index,
        "classes": sorted(plan.classes),
        "results": [
            {"class": name, "diagnostics": diagnostics_to_list(result.diagnostics)}
            for name, result in batch.class_results
        ],
        "timings": [
            {
                "class": timing.class_name,
                "seconds": timing.seconds,
                "from_cache": timing.from_cache,
                "wave": timing.wave,
                "quarantined": timing.quarantined,
            }
            for timing in metrics.timings
        ],
        "metrics": {
            "jobs": metrics.jobs,
            "executor": metrics.executor,
            "wall_seconds": metrics.wall_seconds,
            "lock_wait_seconds": metrics.lock_wait_seconds,
            **{name: getattr(metrics, name) for name in _METRIC_SUMS},
        },
    }


@dataclass(frozen=True)
class ShardResult:
    """One shard's deserialized output."""

    shards: int
    index: int
    classes: frozenset[str]
    results: tuple[tuple[str, CheckResult], ...]
    timings: tuple[ClassTiming, ...]
    metrics: dict[str, Any]


def shard_result_from_dict(payload: Mapping[str, Any]) -> ShardResult:
    if not isinstance(payload, Mapping):
        raise EngineError("malformed shard result: not a mapping")
    if payload.get("shard_format") != SHARD_FORMAT_VERSION:
        raise EngineError(
            f"shard result version skew: got {payload.get('shard_format')!r}, "
            f"want {SHARD_FORMAT_VERSION}"
        )
    try:
        results = tuple(
            (
                entry["class"],
                CheckResult(diagnostics=diagnostics_from_list(entry["diagnostics"])),
            )
            for entry in payload["results"]
        )
        timings = tuple(
            ClassTiming(
                class_name=entry["class"],
                seconds=float(entry["seconds"]),
                from_cache=bool(entry["from_cache"]),
                wave=int(entry["wave"]),
                quarantined=bool(entry.get("quarantined", False)),
            )
            for entry in payload["timings"]
        )
        return ShardResult(
            shards=int(payload["shards"]),
            index=int(payload["index"]),
            classes=frozenset(payload["classes"]),
            results=results,
            timings=timings,
            metrics=dict(payload["metrics"]),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise EngineError(f"malformed shard result: {err}") from err


def merge_shard_results(
    module: ParsedModule,
    violations: list[SubsetViolation] | None,
    shard_results: Sequence[ShardResult],
) -> BatchResult:
    """Reassemble per-shard outputs into one :class:`BatchResult`.

    Validates that the shards form a complete, disjoint partition of
    the schedule before trusting them; the merged report then only
    depends on class order in the module source, exactly like
    :meth:`BatchVerifier.run`.
    """
    if not shard_results:
        raise EngineError("no shard results to merge")
    shards = shard_results[0].shards
    if any(result.shards != shards for result in shard_results):
        raise EngineError("shard results disagree on the shard count")
    indices = sorted(result.index for result in shard_results)
    if indices != list(range(shards)):
        raise EngineError(
            f"incomplete shard set: have indices {indices}, want 0..{shards - 1}"
        )
    covered: set[str] = set()
    for result in shard_results:
        overlap = covered & result.classes
        if overlap:
            raise EngineError(
                f"shards overlap on classes: {', '.join(sorted(overlap))}"
            )
        covered |= result.classes
    plan = BatchVerifier(module).plan()
    expected = plan.classes()
    if covered != expected:
        missing = sorted(expected - covered)
        extra = sorted(covered - expected)
        raise EngineError(
            "shard results do not cover the schedule"
            + (f"; missing: {', '.join(missing)}" if missing else "")
            + (f"; unexpected: {', '.join(extra)}" if extra else "")
        )

    outcomes: dict[str, CheckResult] = {}
    timings: list[ClassTiming] = []
    for result in shard_results:
        outcomes.update(dict(result.results))
        timings.extend(result.timings)
    ordered = tuple(
        (parsed.name, outcomes[parsed.name])
        for parsed in module.classes
        if parsed.name in outcomes
    )

    summed = {
        name: sum(int(result.metrics.get(name, 0)) for result in shard_results)
        for name in _METRIC_SUMS
    }
    metrics = EngineMetrics(
        classes=plan.scheduled,
        waves=plan.wave_count,
        jobs=max(int(result.metrics.get("jobs", 1)) for result in shard_results),
        executor=str(shard_results[0].metrics.get("executor", "thread")),
        # Shards run concurrently: the fleet's wall clock is the slowest
        # shard, not the sum.
        wall_seconds=max(
            float(result.metrics.get("wall_seconds", 0.0))
            for result in shard_results
        ),
        timings=tuple(sorted(timings, key=lambda t: (t.wave, t.class_name))),
        lock_wait_seconds=sum(
            float(result.metrics.get("lock_wait_seconds", 0.0))
            for result in shard_results
        ),
        **summed,
    )
    return BatchResult(
        module=module,
        module_result=module_diagnostics(module, list(violations or [])),
        class_results=ordered,
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# The coordinator (repro coordinate)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinatedRun:
    """What :func:`coordinate` hands back."""

    batch: BatchResult
    shard_metrics: tuple[dict[str, Any], ...]


def coordinate(
    target: str | Path,
    *,
    shards: int,
    jobs: int = 1,
    executor: str = "thread",
    cache_dir: str | Path | None = None,
    worker_cache_root: str | Path | None = None,
    remote_cache: str | None = None,
    timeout_seconds: float = 600.0,
) -> CoordinatedRun:
    """Fan one check out to ``shards`` worker subprocesses and merge.

    Each worker is a full ``repro check --shards N --shard-index i``
    invocation writing its slice to a ``--shard-out`` file.  With
    ``worker_cache_root`` every worker gets its own local cache tree
    (``<root>/worker-<i>``) — the configuration that makes a shared
    ``remote_cache`` observable: worker-local trees start empty, so any
    hit must have crossed the wire.
    """
    if shards < 1:
        raise EngineError(f"shards must be >= 1, got {shards}")
    with tempfile.TemporaryDirectory(prefix="repro-shards-") as scratch:
        processes: list[tuple[int, subprocess.Popen, Path]] = []
        for index in range(shards):
            out_path = Path(scratch) / f"shard-{index}.json"
            command = [
                sys.executable, "-m", "repro.cli", "check", str(target),
                "--shards", str(shards), "--shard-index", str(index),
                "--shard-out", str(out_path),
                "--jobs", str(jobs), "--executor", executor,
            ]
            worker_cache: Path | None = None
            if worker_cache_root is not None:
                worker_cache = Path(worker_cache_root) / f"worker-{index}"
            elif cache_dir is not None:
                worker_cache = Path(cache_dir)
            if worker_cache is not None or remote_cache is not None:
                command += ["--cache"]
                if worker_cache is not None:
                    command += ["--cache-dir", str(worker_cache)]
            if remote_cache is not None:
                command += ["--remote-cache", remote_cache]
            process = subprocess.Popen(
                command,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            processes.append((index, process, out_path))

        payloads: list[dict[str, Any]] = []
        failures: list[str] = []
        for index, process, out_path in processes:
            try:
                _stdout, stderr = process.communicate(timeout=timeout_seconds)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()
                failures.append(f"shard {index}: timed out")
                continue
            # Exit 1 is "check found violations", still a valid shard.
            if process.returncode not in (0, 1):
                failures.append(
                    f"shard {index}: exit {process.returncode}: "
                    f"{stderr.strip().splitlines()[-1] if stderr.strip() else ''}"
                )
                continue
            try:
                payloads.append(
                    json.loads(out_path.read_text(encoding="utf-8"))
                )
            except (OSError, ValueError) as err:
                failures.append(f"shard {index}: unreadable result: {err}")
        if failures:
            raise EngineError(
                "coordinated run failed: " + "; ".join(failures)
            )
        results = [shard_result_from_dict(payload) for payload in payloads]
    # Parsed only now: a target the workers could not load has already
    # failed the fleet above, with their usage error as the message.
    batch = merge_shard_results(*parse_path(target), results)
    return CoordinatedRun(
        batch=batch,
        shard_metrics=tuple(dict(result.metrics) for result in results),
    )
