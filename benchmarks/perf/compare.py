"""Compare run sets of the end-to-end benchmark.

Usage::

    python benchmarks/perf/compare.py BASE.jsonl HEAD.jsonl [MORE.jsonl ...]

Each file is one run set: the JSON lines ``run.py --out`` appends, one
per workload run.  For every workload row and end-to-end metric the
comparer prints each set's median and quartiles, then judges every set
after the first against the first with the metric's ``BENCHMARK.json``
bound:

* ``regressed`` — the median is worse by more than the bound;
* ``unresolved`` — either set's spread (inter-quartile distance over the
  median) exceeds the bound, so no verdict is possible, unless every run
  of the later set beats every run of the first (then ``improved``);
* ``improved`` / ``unchanged`` — otherwise.

Traced runs are ignored: end-to-end numbers come from untraced runs
only.  A run in which any request failed is listed as ``FAILED`` and
left out of the numbers.  Exits 1 when any run failed or anything
regressed or is unresolved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import quartiles, spread

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_set(path: str) -> tuple[dict[tuple[str, str], list[float]], list[str]]:
    """(workload, metric) -> values over the untraced runs in ``path``,
    and the runs left out because requests failed in them: a shed or
    errored request returns fast, so their numbers would flatter."""
    values: dict[tuple[str, str], list[float]] = {}
    failed: list[str] = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            row = json.loads(line)
            if row["trace"]:
                continue
            if row["failed"]:
                failed.append(
                    f"{path}: {row['workload']} seed {row['seed']}: "
                    f"{row['failed']} of {row['attempted']} requests failed"
                )
                continue
            for metric, entry in row["metrics"].items():
                values.setdefault((row["workload"], metric), []).append(entry["value"])
    return values, failed


def judge(base: list[float], head: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    beats_all = (
        max(head) < min(base) if better == "lower" else min(head) > max(base)
    )
    if spread(base) > bound or spread(head) > bound:
        return "improved" if beats_all else "unresolved"
    base_median, head_median = quartiles(base)[1], quartiles(head)[1]
    worse = sign * (head_median - base_median) / abs(base_median)
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+", help="run-set files; the first is the base")
    args = parser.parse_args(argv)
    if len(args.sets) < 2:
        parser.error("need a base set and at least one set to compare")
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    loaded = [load_set(path) for path in args.sets]
    sets = [values for values, _ in loaded]
    failed = [run for _, runs in loaded for run in runs]
    for run in failed:
        print(f"FAILED {run}")
    bad = len(failed)
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if any(key not in values for values in sets):
                continue
            cells = []
            for values in sets:
                q1, median, q3 = quartiles(values[key])
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values[key])}")
            verdicts = [
                judge(sets[0][key], values[key], metric["better"], metric["bound"])
                for values in sets[1:]
            ]
            bad += sum(v in ("regressed", "unresolved") for v in verdicts)
            print(
                f"{workload:11} {metric['name']:15} {metric['unit']:6} "
                + "  |  ".join(cells)
                + "  ->  " + ", ".join(verdicts)
                + f"  (bound {metric['bound']:.0%})"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
