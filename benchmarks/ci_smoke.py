"""CI benchmark smoke gate.

Runs reduced configurations of the scaling-checker and Figure-4
inference benchmarks (plus the batch engine's warm-cache path), writes
the measurements to ``BENCH_ci.json`` and fails when any kernel regressed
more than ``--threshold``× against the committed baseline.

Raw wall times are useless across runner generations, so every kernel is
*normalized* by a fixed pure-Python calibration loop measured in the same
process: the gated quantity is ``kernel_time / calibration_time``, a
machine-independent "how many calibration units does this cost" score.
Per kernel the minimum of ``--repeat`` runs is used — the minimum is the
stable statistic under CI noise.

Usage::

    python benchmarks/ci_smoke.py --baseline benchmarks/BENCH_baseline.json \
        --out BENCH_ci.json [--threshold 2.0] [--update-baseline]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if not any(Path(p).resolve() == REPO_ROOT / "src" for p in sys.path if p):
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.checker import check_source  # noqa: E402
from repro.engine import BatchVerifier, InferenceCache, verify_incremental  # noqa: E402
from repro.frontend.parse import parse_module  # noqa: E402
from repro.frontend.project import parse_project  # noqa: E402
from repro.lang.builder import paper_example_program  # noqa: E402
from repro.lang.inference import behavior  # noqa: E402
from repro.obs import NULL_TRACER  # noqa: E402
from repro.workloads.hierarchy import (  # noqa: E402
    HierarchyShape,
    grid_project_files,
    lifecycle_claim,
    module_source,
    project_source,
)


def _calibration() -> float:
    """A fixed, allocation-heavy pure-Python loop (the normalizer)."""
    started = time.perf_counter()
    total = 0
    for index in range(120_000):
        total += len(str(index)) + (index % 7)
    assert total > 0
    return time.perf_counter() - started


# Checker shapes are sized so automata work (determinize, inclusion,
# claims) dominates parse/lint.
def _kernel_checker_clean() -> None:
    shape = HierarchyShape(
        base_operations=8, subsystems=4, composite_operations=3, seed=3
    )
    source = module_source(shape, correct=True, claim=lifecycle_claim(shape))
    result = check_source(source)
    assert result.ok, result.format()


def _kernel_checker_counterexample() -> None:
    shape = HierarchyShape(
        base_operations=8, subsystems=5, composite_operations=3, seed=5
    )
    result = check_source(module_source(shape, correct=False))
    assert not result.ok
    assert result.by_code("invalid-subsystem-usage")


def _kernel_inference_example3() -> None:
    program = paper_example_program()
    behavior.cache_clear()  # time the real computation, not the lru cache
    inferred = behavior(program)
    assert inferred.returned


#: Documented ceiling for the disabled-tracer kernel, in calibration
#: units (docs/observability.md): 200k no-op span enters must cost less
#: than 6 calibration loops.  An absolute gate, independent of the
#: baseline file.  The null path measures ~3.5 units; an *enabled*
#: tracer measures ~70 — so this bound trips as soon as the disabled
#: path starts allocating spans or reading the clock, while leaving
#: normal CI noise plenty of headroom.
OBS_NULL_BOUND = 6.0


def _kernel_obs_null_span() -> None:
    """The tracing-off fast path: 200k disabled span enters."""
    tracer = NULL_TRACER
    for _ in range(200_000):
        with tracer.span("phase", "infer"):
            pass


def _make_engine_warm_kernel():
    """Warm-cache engine run: parse + hash + cache lookups, no inference."""
    shape = HierarchyShape(base_operations=4, subsystems=2, seed=7)
    module, violations = parse_module(project_source(shape, pairs=3))
    tmp = tempfile.mkdtemp(prefix="repro-bench-cache-")
    cold = BatchVerifier(module, violations, cache=InferenceCache(tmp)).run()
    assert cold.ok

    def kernel() -> None:
        warm = BatchVerifier(module, violations, cache=InferenceCache(tmp)).run()
        assert warm.metrics.fully_cached

    return kernel


#: Reuse-ratio floor for the incremental-edit kernel: a one-leaf body
#: edit on the 4×3 grid must splice at least 90% of the verdicts from
#: the state file (11 of 12 classes — the edit dirties exactly one).
#: An absolute gate, independent of the baseline file: it trips the
#: moment a planner change starts over-dirtying, even if the kernel
#: happens to get *faster* (docs/incremental.md).
INC_REUSE_FLOOR = 0.9


def _make_incremental_edit_kernel():
    """Warm incremental re-run after one leaf edit: plan + splice + 1 check."""
    scratch = Path(tempfile.mkdtemp(prefix="repro-bench-incremental-"))
    project_root = scratch / "project"
    state_file = scratch / "state.json"
    grid_project_files(HierarchyShape(base_operations=4), 4, 3, project_root)
    module, violations = parse_project(project_root)
    cold = verify_incremental(module, violations, state_file=state_file)
    assert cold.batch.ok
    leaf = project_root / "G0_000.py"

    def kernel() -> None:
        # Body-only edit: one more leading blank line each run.
        leaf.write_text(
            "\n" + leaf.read_text(encoding="utf-8"), encoding="utf-8"
        )
        module, violations = parse_project(project_root)
        warm = verify_incremental(module, violations, state_file=state_file)
        assert warm.plan.dirty == ("G0_000",), warm.plan.dirty
        ratio = warm.batch.metrics.reuse_ratio
        assert ratio >= INC_REUSE_FLOOR, (
            f"reuse ratio {ratio:.3f} fell below the {INC_REUSE_FLOOR} floor"
        )

    return kernel


def measure(repeat: int) -> dict[str, float]:
    kernels = {
        "checker_clean": _kernel_checker_clean,
        "checker_counterexample": _kernel_checker_counterexample,
        "inference_example3": _kernel_inference_example3,
        "engine_warm_cache": _make_engine_warm_kernel(),
        "engine_incremental_edit": _make_incremental_edit_kernel(),
        "obs_null_span": _kernel_obs_null_span,
    }
    calibration = min(_calibration() for _ in range(repeat))
    scores: dict[str, float] = {"calibration_seconds": calibration}
    for name, kernel in kernels.items():
        best = float("inf")
        for _ in range(repeat):
            started = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - started)
        scores[name] = best / calibration
    return scores


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", default=str(REPO_ROOT / "benchmarks" / "BENCH_baseline.json")
    )
    parser.add_argument("--out", default="BENCH_ci.json")
    parser.add_argument("--threshold", type=float, default=2.0)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the measurements to --baseline instead of gating",
    )
    args = parser.parse_args(argv)

    scores = measure(args.repeat)
    payload = {
        "format": 1,
        "python": sys.version.split()[0],
        "repeat": args.repeat,
        "scores": scores,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {args.out}")
    for name, value in sorted(scores.items()):
        print(f"  {name:26} {value:.4f}")

    if args.update_baseline:
        Path(args.baseline).write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"updated baseline {args.baseline}")
        return 0

    try:
        baseline = json.loads(Path(args.baseline).read_text())
    except (OSError, ValueError) as error:
        print(f"error: cannot read baseline {args.baseline}: {error}")
        return 2
    failures = []
    if scores["obs_null_span"] > OBS_NULL_BOUND:
        failures.append(
            f"obs_null_span: {scores['obs_null_span']:.4f} calibration "
            f"units exceeds the documented {OBS_NULL_BOUND} absolute bound "
            "(the disabled tracer must stay near-free)"
        )
    for name, reference in baseline["scores"].items():
        if name == "calibration_seconds":
            continue
        measured = scores.get(name)
        if measured is None:
            failures.append(f"kernel {name} missing from this run")
            continue
        ratio = measured / reference if reference else float("inf")
        verdict = "FAIL" if ratio > args.threshold else "ok"
        print(f"  {name:26} {ratio:6.2f}x baseline  [{verdict}]")
        if ratio > args.threshold:
            failures.append(
                f"{name}: {measured:.4f} vs baseline {reference:.4f} "
                f"({ratio:.2f}x > {args.threshold}x)"
            )
    if failures:
        print("benchmark regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("benchmark regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
