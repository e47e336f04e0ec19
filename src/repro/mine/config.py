"""The settings of one collection run, each with its ``repro mine`` flag.

Kept out of :mod:`repro.mine.collect` so that ``repro``'s parser can
read these flags without importing the collector and its monitor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.options import option


@dataclass(frozen=True)
class CollectConfig:
    """Deterministic knobs of one collection run."""

    seed: int = option(
        0,
        "--seed",
        "seed of the random-lifecycle driver; the whole run is deterministic per seed",
    )
    random_runs: int = option(
        32,
        "--random-runs",
        "random monitored lifecycles per class beyond the transition-covering suite",
        metavar="N",
    )
    max_random_len: int = option(
        12, "--max-random-len", "cap on each random lifecycle's length", metavar="N"
    )
    max_sequences: int | None = option(
        None,
        "--max-sequences",
        "cap the transition-covering suite",
        metavar="N",
        unset="unlimited",
    )

    def __post_init__(self) -> None:
        if self.random_runs < 0:
            raise ValueError("random_runs must be >= 0")
        if self.max_random_len < 1:
            raise ValueError("max_random_len must be >= 1")
        if self.max_sequences is not None and self.max_sequences < 0:
            raise ValueError(f"max_sequences must be >= 0, got {self.max_sequences}")
