"""The end-to-end benchmark: four workloads, one command.

Usage::

    python benchmarks/perf/run.py [--workload W] [--seed S] [--seconds N]
        [--trace [0|1]] [--out RESULTS.jsonl] [--trace-out SPANS.jsonl]

Each workload runs in fresh child processes (``workloads.py``), so every
run has its own memo tables and its own RSS.  Untraced (``--trace 0``,
the default) the runner starts the workload :data:`SETUP_RUNS` times,
reports the median set-up time, and measures the last start for
``--seconds``: the end-to-end metrics of ``BENCHMARK.json``.  Traced
(``--trace`` / ``--trace 1``) it runs a short untraced baseline, then a
traced run with the layer wrappers of ``layers.py`` installed, and
reports the per-layer metrics plus the tracing overhead.

The host's speed drifts between phases up to twice apart, so request
times are normalised: each request's latency by the host-speed probe
(``stats.probe_seconds``) its caller runs right after it, each set-up
by the median probe after its warm-up requests.  The metrics read as
they would on a host whose probe takes ``stats.PROBE_REFERENCE_S``; the
wall-clock values print beside them as ``wall.<metric>``.

Every metric prints as ``workload metric value unit``, followed by the
sample count; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every request's verdict is
checked against the generator's known answer; any failure makes the exit
code 1.  At the default seed the inputs must hash to the digest pinned
in ``inputs.json`` (exit 3 otherwise); other seeds print their digest.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from stats import TooFewSamples, normalised, percentile, quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
PINS = HERE / "inputs.json"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_RUNS = 3

#: The untraced baseline of a traced run measures this share of --seconds.
BASELINE_SHARE = 0.25

#: Seconds a workload process has to finish its set-up.
SETUP_TIMEOUT_S = 60.0

#: Seconds a workload process has, beyond the longest its timed loop may
#: run (three times ``--seconds``), to stop its daemon and report.
FINISH_TIMEOUT_S = 30.0


class BenchError(RuntimeError):
    """The benchmark could not produce a trustworthy number."""


def child_env(work: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # Fixed string hashing makes set and dict orders, and so the work
    # the automata do, repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    return env


def spawn(
    workload: str,
    seed: int,
    work: Path,
    *,
    seconds: float = 0.0,
    trace: int = 0,
    setup_only: bool = False,
    trace_out: str | None = None,
) -> tuple[float, float, dict[str, Any] | None]:
    """Run one workload process.

    Returns its set-up seconds, the median probe time after its warm-up
    requests and its raw result.  The process and everything it started
    are killed when it overruns its set-up or its run.
    """
    work.mkdir(parents=True)
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--work", str(work),
        "--trace", str(trace), "--seconds", str(seconds),
    ]
    if setup_only:
        command.append("--setup-only")
    if trace_out:
        command += ["--trace-out", trace_out]
    started = time.perf_counter()
    # A session of its own, so a kill reaches the serve daemon too.
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=child_env(work), cwd=ROOT,
        start_new_session=True,
    )
    try:
        if not select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)[0]:
            raise BenchError(f"{workload} set-up took over {SETUP_TIMEOUT_S:.0f} s")
        ready = proc.stdout.readline()
        setup = time.perf_counter() - started
        try:
            output, _ = proc.communicate(timeout=3 * seconds + FINISH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} run overran its time") from None
    finally:
        if proc.poll() is None or proc.returncode != 0:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(work, ignore_errors=True)
    word, _, probe = ready.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} process failed (exit {proc.returncode})")
    if setup_only:
        return setup, float(probe), None
    return setup, float(probe), json.loads(output.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

#: Completions per throughput chunk.
CHUNK = 50


def latencies_ms(result: dict[str, Any], *, wall: bool = False) -> list[float]:
    """Per-request latencies in ms, normalised by the probe run right
    after each request unless ``wall``."""
    if wall:
        return [latency * 1000.0 for latency in result["latencies_s"]]
    return [
        normalised(latency, probe) * 1000.0
        for latency, probe in zip(result["latencies_s"], result["probes_s"])
    ]


def throughput(result: dict[str, Any], *, wall: bool = False) -> float:
    """Requests per second of the closed loop: callers over mean request
    time (Little's law), so the benchmark's own work between requests
    (writing inputs, checking verdicts, probing) does not count.  It is
    the median over consecutive chunks of :data:`CHUNK` completions, not
    the mean over the run, so a few seconds in which the host stalls the
    process do not move it."""
    latencies = latencies_ms(result, wall=wall)
    rates = [
        result["callers"] * CHUNK * 1000.0 / sum(latencies[k:k + CHUNK])
        for k in range(0, len(latencies) - CHUNK + 1, CHUNK)
    ]
    return quartiles(rates)[1]


def end_to_end(
    setups: list[tuple[float, float]], result: dict[str, Any], *, wall: bool = False
) -> dict[str, float]:
    """The end-to-end metrics of one untraced run from its (set-up
    seconds, warm-up probe) pairs and its raw result: normalised to the
    reference probe time, or as the wall clock read them (``wall``)."""
    latencies = latencies_ms(result, wall=wall)
    return {
        "setup_s": quartiles(
            [setup if wall else normalised(setup, probe) for setup, probe in setups]
        )[1],
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "throughput_rps": throughput(result, wall=wall),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(
    names: list[str], baseline: dict[str, Any], traced: dict[str, Any]
) -> dict[str, float]:
    folds = traced["layers"]
    values: dict[str, float] = {}
    for name in names:
        if name == "bench.trace_overhead_frac":
            values[name] = (
                percentile(latencies_ms(traced), 50)
                / percentile(latencies_ms(baseline), 50)
                - 1.0
            )
        elif name.startswith("serve.queue_wait.ms."):
            waits = folds.get("serve.queue_wait.ms")
            pct = float(name.rsplit(".p", 1)[1])
            values[name] = percentile(waits, pct) if waits else 0.0
        else:
            values[name] = float(folds.get(name, 0.0))
    return values


def calibration_seconds(repeat: int = 5) -> float:
    """The fixed pure-Python loop of ``benchmarks/ci_smoke.py``, min of 5."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        total = 0
        for index in range(120_000):
            total += len(str(index)) + (index % 7)
        best = min(best, time.perf_counter() - started)
    return best


def context() -> dict[str, Any]:
    """What a result needs to be compared across machines (not gated)."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        revision = head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        revision = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git": revision,
        "calibration_s": calibration_seconds(),
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

def run_workload(
    name: str, args: argparse.Namespace, spec: dict[str, Any], work: Path
) -> dict[str, Any]:
    wall: dict[str, float] = {}
    if args.trace:
        trace_out = args.trace_out
        if trace_out and not args.workload:
            path = Path(trace_out)
            trace_out = str(path.with_name(f"{path.stem}.{name}{path.suffix}"))
        *_, baseline = spawn(
            name, args.seed, work / "baseline", seconds=args.seconds * BASELINE_SHARE
        )
        *_, traced = spawn(
            name, args.seed, work / "traced", seconds=args.seconds, trace=1,
            trace_out=trace_out,
        )
        metrics = per_layer(
            [m["name"] for m in spec["per_layer"]], baseline, traced
        )
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        runs = [baseline, traced]
    else:
        setups = []
        for index in range(SETUP_RUNS - 1):
            setup, probe, _ = spawn(
                name, args.seed, work / f"setup{index}", setup_only=True
            )
            setups.append((setup, probe))
        setup, probe, result = spawn(name, args.seed, work / "timed", seconds=args.seconds)
        setups.append((setup, probe))
        metrics = end_to_end(setups, result)
        wall = end_to_end(setups, result, wall=True)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        runs = [result]
    return {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": runs[-1]["samples"],
        "attempted": sum(run["samples"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "failures": [f for run in runs for f in run["failures"]],
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
        "wall": wall,
    }


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    names = [workload["name"] for workload in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=pins["default_seed"])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=None,
                        help="append one JSON line per workload to this file")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced run's spans here as JSONL")
    args = parser.parse_args(argv)
    if args.trace_out:
        args.trace_out = str(Path(args.trace_out).resolve())

    import workloads

    chosen = [args.workload] if args.workload else names
    work = ROOT / ".perf-work" / f"run-{os.getpid()}"
    stamp = context() if args.out else None
    rows = []
    try:
        for name in chosen:
            digest = workloads.digest(name, args.seed, work / "digest" / name)
            if args.seed == pins["default_seed"]:
                if digest != pins["inputs_sha256"][name]:
                    print(
                        f"error: {name} inputs changed at the default seed "
                        f"(digest {digest}, pinned "
                        f"{pins['inputs_sha256'][name]}); refusing to report",
                        file=sys.stderr,
                    )
                    return 3
            else:
                print(f"{name} inputs_sha256 {digest}")
            row = run_workload(name, args, spec, work / name)
            row["inputs_sha256"] = digest
            rows.append(row)
            for metric, entry in row["metrics"].items():
                print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
            for metric, value in row["wall"].items():
                unit = row["metrics"][metric]["unit"]
                print(f"{name} wall.{metric} {value!r} {unit}")
            print(f"{name} samples {row['samples']} count")
            for failure in row["failures"]:
                print(f"{name} FAILED {failure}", file=sys.stderr)
    except (BenchError, TooFewSamples) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    if args.out:
        with open(args.out, "a", encoding="utf-8") as stream:
            for row in rows:
                stream.write(json.dumps({"context": stamp, **row}, sort_keys=True) + "\n")
    failed = sum(row["failed"] for row in rows)
    metrics = {
        (key if len(rows) == 1 else f"{row['workload']}.{key}"): entry
        for row in rows
        for key, entry in row["metrics"].items()
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(row["attempted"] for row in rows),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
