"""Summary statistics and the host-speed probe shared by the benchmark's
runner, workloads and comparer."""

from __future__ import annotations

import math
import statistics
import time

#: Rounds of the probe loop.  On the 2-vCPU reference host it takes
#: about 1 ms when the host is fast and up to twice that when it is not.
PROBE_ROUNDS = 10_000

#: Times are normalised to a host on which the probe takes this long.
PROBE_REFERENCE_S = 0.001


def probe_seconds() -> float:
    """How long the host takes right now for a fixed pure-Python loop:
    the body of ``benchmarks/ci_smoke.py``'s calibration loop, run
    :data:`PROBE_ROUNDS` times.

    It counts the thread's CPU time, which grows with the host's slow
    phases but not with time spent waiting for the GIL or for a CPU, so
    two callers probing at once do not slow each other's probe."""
    started = time.thread_time()
    total = 0
    for index in range(PROBE_ROUNDS):
        total += len(str(index)) + (index % 7)
    return time.thread_time() - started


def normalised(seconds: float, probe: float) -> float:
    """``seconds`` as they would read on a host whose probe takes
    :data:`PROBE_REFERENCE_S`, given the probe time measured beside them."""
    return seconds * PROBE_REFERENCE_S / probe


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it can stand on."""


#: A percentile is reported only with at least this many samples beyond
#: it, so p50 needs 20 samples and p99 needs 1000.
MIN_BEYOND = 10


def percentile(samples: list[float], pct: float) -> float:
    """The nearest-rank ``pct``-th percentile of ``samples``.

    Refuses (``TooFewSamples``) unless at least :data:`MIN_BEYOND`
    samples lie beyond it: a p99 from 300 samples is the third-largest
    value, which is noise, not a tail.
    """
    count = len(samples)
    if count * (100.0 - pct) / 100.0 < MIN_BEYOND:
        raise TooFewSamples(
            f"p{pct:g} needs {math.ceil(MIN_BEYOND * 100 / (100 - pct))} "
            f"samples, got {count}"
        )
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * count))
    return ordered[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles``
    gives them; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf
