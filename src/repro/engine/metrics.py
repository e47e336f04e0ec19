"""Engine observability: cache counters and per-class wall time.

Mirrors the style of :mod:`repro.core.metrics` (a frozen summary with a
``format`` method), but measures the *run*, not the model: how the wave
schedule shaped up, how the worker pool was configured, and how the
content-addressed verdict cache performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class ClassTiming:
    """Wall time of one class's check and where the verdict came from.

    ``quarantined`` marks classes the supervisor gave up on — their
    "verdict" is an ``ENGINE ...`` diagnostic, not a real check result.
    ``from_state`` marks verdicts an incremental run spliced out of the
    persistent project state without scheduling the class at all
    (docs/incremental.md) — distinct from ``from_cache``, which means
    the class *was* scheduled and hit the verdict cache.
    """

    class_name: str
    seconds: float
    from_cache: bool
    wave: int
    quarantined: bool = False
    from_state: bool = False


@dataclass(frozen=True)
class EngineMetrics:
    """Quantitative summary of one batch-verification run."""

    classes: int
    waves: int
    jobs: int
    executor: str
    wall_seconds: float
    class_hits: int
    class_misses: int
    cache_writes: int
    timings: tuple[ClassTiming, ...]
    #: Corrupt cache entries found — and deleted — during this run.
    corrupt_entries: int = 0
    # Supervisor counters (docs/robustness.md): how much fault handling
    # the run needed.  All zero on a healthy run.
    retries: int = 0
    quarantines: int = 0
    budget_trips: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    # Incremental re-verification counters (docs/incremental.md): how
    # much of the run was served from the persistent project state.
    incremental: bool = False
    reused_verdicts: int = 0
    dirty_classes: int = 0
    # Crash-safe store counters (docs/robustness.md): checksum-detected
    # corruption, failed persists, swept crash debris, and the state
    # file's merges.  All zero on a healthy single-process run.
    checksum_failures: int = 0
    write_failures: int = 0
    orphans_removed: int = 0
    state_save_failures: int = 0
    state_merged_entries: int = 0
    state_generation: int = 0
    # Remote cache tier counters (docs/distributed.md).  All zero when
    # the run used a purely local backend.
    remote_hits: int = 0
    remote_misses: int = 0
    remote_puts: int = 0
    remote_errors: int = 0
    remote_degraded: int = 0

    @property
    def reuse_ratio(self) -> float:
        """Fraction of classes whose verdict came from the state file."""
        return self.reused_verdicts / self.classes if self.classes else 0.0

    @property
    def class_hit_rate(self) -> float:
        total = self.class_hits + self.class_misses
        return self.class_hits / total if total else 0.0

    @property
    def fully_cached(self) -> bool:
        """Did every class verdict come out of the cache (a warm run)?"""
        return self.classes > 0 and self.class_misses == 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "classes": self.classes,
            "waves": self.waves,
            "jobs": self.jobs,
            "executor": self.executor,
            "wall_seconds": self.wall_seconds,
            "cache": {
                "class_hits": self.class_hits,
                "class_misses": self.class_misses,
                "writes": self.cache_writes,
                "corrupt_entries": self.corrupt_entries,
            },
            "supervisor": {
                "retries": self.retries,
                "quarantines": self.quarantines,
                "budget_trips": self.budget_trips,
                "timeouts": self.timeouts,
                "pool_restarts": self.pool_restarts,
            },
            "incremental": {
                "enabled": self.incremental,
                "reused": self.reused_verdicts,
                "dirty": self.dirty_classes,
                "reuse_ratio": self.reuse_ratio,
            },
            "store": {
                "checksum_failures": self.checksum_failures,
                "write_failures": self.write_failures,
                "orphans_removed": self.orphans_removed,
                "state_save_failures": self.state_save_failures,
                "state_merged_entries": self.state_merged_entries,
                "state_generation": self.state_generation,
            },
            "remote": {
                "hits": self.remote_hits,
                "misses": self.remote_misses,
                "puts": self.remote_puts,
                "errors": self.remote_errors,
                "degraded": self.remote_degraded,
            },
            # Sorted here as well as at construction: the export is the
            # byte-stability contract (same project + cache temperature
            # => identical file regardless of jobs/completion order), so
            # it must hold even for hand-built metrics.
            "per_class": [
                {
                    "class": timing.class_name,
                    "seconds": timing.seconds,
                    "from_cache": timing.from_cache,
                    "wave": timing.wave,
                    "quarantined": timing.quarantined,
                    "from_state": timing.from_state,
                }
                for timing in sorted(
                    self.timings, key=lambda t: (t.wave, t.class_name)
                )
            ],
        }

    def format(self) -> str:
        lines = [
            "engine metrics:",
            f"  classes               {self.classes} in {self.waves} wave(s)",
            f"  workers               {self.jobs} ({self.executor})",
            f"  wall time             {self.wall_seconds * 1000.0:.1f} ms",
            f"  verdict cache         {self.class_hits} hit(s), "
            f"{self.class_misses} miss(es) "
            f"({self.class_hit_rate * 100.0:.0f}% hit rate)",
            f"  cache writes          {self.cache_writes}",
        ]
        if self.incremental:
            lines.append(
                f"  incremental           {self.reused_verdicts} reused, "
                f"{self.dirty_classes} re-checked "
                f"({self.reuse_ratio * 100.0:.0f}% reuse)"
            )
        if self.corrupt_entries:
            lines.append(
                f"  cache healed          {self.corrupt_entries} corrupt "
                f"entr{'y' if self.corrupt_entries == 1 else 'ies'} deleted"
                + (
                    f" ({self.checksum_failures} checksum mismatch(es))"
                    if self.checksum_failures
                    else ""
                )
            )
        if (
            self.write_failures
            or self.orphans_removed
            or self.state_save_failures
            or self.state_merged_entries
        ):
            lines.append(
                f"  store                 {self.write_failures} failed "
                f"write(s), {self.orphans_removed} orphan(s) swept, "
                f"{self.state_save_failures} state save failure(s), "
                f"{self.state_merged_entries} merged state entr"
                f"{'y' if self.state_merged_entries == 1 else 'ies'}"
            )
        if (
            self.remote_hits
            or self.remote_misses
            or self.remote_puts
            or self.remote_errors
            or self.remote_degraded
        ):
            lines.append(
                f"  remote cache          {self.remote_hits} hit(s), "
                f"{self.remote_misses} miss(es), "
                f"{self.remote_puts} upload(s), "
                f"{self.remote_errors} error(s)"
                + (" — degraded to local-only" if self.remote_degraded else "")
            )
        if (
            self.retries
            or self.quarantines
            or self.budget_trips
            or self.timeouts
            or self.pool_restarts
        ):
            lines.append(
                f"  supervisor            {self.retries} retr{'y' if self.retries == 1 else 'ies'}, "
                f"{self.quarantines} quarantine(s), "
                f"{self.budget_trips} budget trip(s), "
                f"{self.timeouts} timeout(s), "
                f"{self.pool_restarts} pool restart(s)"
            )
        for timing in self.timings:
            if timing.quarantined:
                origin = "quarantined"
            elif timing.from_state:
                origin = "state"
            elif timing.from_cache:
                origin = "cache"
            else:
                origin = "checked"
            lines.append(
                f"  class {timing.class_name:<15} wave {timing.wave}  "
                f"{timing.seconds * 1000.0:8.2f} ms  [{origin}]"
            )
        return "\n".join(lines)
