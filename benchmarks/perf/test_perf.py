"""Self-tests of the end-to-end benchmark: ``pytest benchmarks/perf``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import stats
import workloads

IN_PROCESS = ("cold_check", "edit_loop", "mine_diff")


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Every workload for half a second (well over the
    ``REPORTS_HASHED`` requests a report digest covers), untraced and
    traced."""
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            work = tmp_path_factory.mktemp(f"{name}-{trace}") / "work"
            *_, results[name, trace] = run.spawn(
                name, 0, work, seconds=0.5, trace=trace
            )
    return results


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_reports_byte_identical(tiny_runs, name):
    untraced, traced = tiny_runs[name, 0], tiny_runs[name, 1]
    assert untraced["failed"] == traced["failed"] == 0
    assert untraced["reports_sha256"] == traced["reports_sha256"]


@pytest.mark.parametrize("name", IN_PROCESS)
def test_self_times_and_unattributed_sum_to_request_time(tiny_runs, name):
    folds = tiny_runs[name, 1]["layers"]
    attributed = sum(
        value for key, value in folds.items()
        if key.endswith(".ms") and key != "unattributed.ms"
    )
    total = attributed + folds["unattributed.ms"]
    assert total == pytest.approx(folds["latency_mean_ms"], rel=0.01)
    assert attributed > 0.5 * total  # the wrappers see most of the request


def test_fresh_serve_jobs_miss_the_method_cache(tiny_runs):
    # Only repeats inside one fresh project may hit; across projects the
    # tagged operation names keep every method body new.
    assert tiny_runs["serve_ci", 1]["layers"]["serve.fresh.method_hit_ratio"] < 0.5


def test_normalised_metrics_follow_the_probe():
    count = 1000  # the fewest a p99 stands on
    result = {
        "latencies_s": [0.010] * count, "probes_s": [0.002] * count,
        "callers": 1, "peak_rss_mb": 30.0,
    }
    metrics = run.end_to_end([(0.5, 0.002)], result)
    wall = run.end_to_end([(0.5, 0.002)], result, wall=True)
    assert wall["latency_p50_ms"] == pytest.approx(10.0)
    assert wall["throughput_rps"] == pytest.approx(100.0)
    assert run.throughput(dict(result, callers=2), wall=True) == pytest.approx(200.0)
    # A host twice as slow as the reference reads half the time.
    assert metrics["latency_p50_ms"] == pytest.approx(5.0)
    assert metrics["throughput_rps"] == pytest.approx(200.0)
    assert wall["setup_s"] == 0.5
    assert metrics["setup_s"] == pytest.approx(0.25)


def test_p99_needs_a_thousand_samples():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([float(i) for i in range(999)], 99)
    assert stats.percentile([float(i) for i in range(1000)], 99) == 989.0
    assert stats.percentile([float(i) for i in range(20)], 50) == 9.0


def test_verdict_checker_flags_wrong_verdicts():
    buggy = {"id": "t0", "buggy": True, "pairs": 3}
    clean = {"id": "t1", "buggy": False, "pairs": 3}
    planted = (
        "Error in specification: INVALID SUBSYSTEM USAGE\n"
        "Counter example: run0, s1.step0\n"
        "Subsystems errors:\n"
        "  * Device2 's1': step0, >step1< (not final)"
    )
    assert workloads.check_project_report(buggy, planted) is None
    assert workloads.check_project_report(clean, workloads.OK_REPORT) is None
    assert workloads.check_project_report(buggy, workloads.OK_REPORT)
    assert workloads.check_project_report(clean, planted)
    assert workloads.check_project_report(buggy, planted.replace("Device2", "Device1"))
    edit = {"id": "t2", "dirty": ["G0_001"]}
    loop = workloads.EditLoop(0, Path("unused"))
    assert loop.verify(edit, (workloads.OK_REPORT, ["G0_001"])) is None
    assert loop.verify(edit, (workloads.OK_REPORT, ["G0_001", "G1_001"]))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_inputs(tmp_path, name):
    first = workloads.digest(name, 0, tmp_path / "a")
    assert workloads.digest(name, 0, tmp_path / "b") == first
    assert workloads.digest(name, 1, tmp_path / "c") != first


def test_default_seed_inputs_match_the_pins(tmp_path):
    pins = json.loads(run.PINS.read_text(encoding="utf-8"))
    for name, pinned in pins["inputs_sha256"].items():
        assert workloads.digest(name, pins["default_seed"], tmp_path / name) == pinned


def test_compare_reports_unresolved_when_spread_exceeds_bound():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.judge(steady, steady, "lower", 0.1) == "unchanged"
    assert compare.judge(steady, [v * 1.3 for v in steady], "lower", 0.1) == "regressed"
    assert compare.judge(steady, [v * 1.3 for v in steady], "higher", 0.1) == "improved"
    noisy = [5.0, 10.0, 15.0, 20.0, 25.0]
    assert compare.judge(steady, noisy, "lower", 0.1) == "unresolved"


def test_compare_refuses_runs_with_failed_requests(tmp_path, capsys):
    def row(seed, p50, failed):
        return json.dumps({
            "workload": "cold_check", "seed": seed, "trace": 0,
            "attempted": 1000, "failed": failed,
            "metrics": {"latency_p50_ms": {"value": p50, "unit": "ms"}},
        })

    base, head = tmp_path / "base.jsonl", tmp_path / "head.jsonl"
    base.write_text("".join(row(s, 10.0, 0) + "\n" for s in range(3)))
    head.write_text("".join(row(s, 10.0, 0) + "\n" for s in range(3)))
    assert compare.main([str(base), str(head)]) == 0
    # Failed requests return fast: the failing run must not count as a gain.
    head.write_text(row(0, 10.0, 0) + "\n" + row(1, 2.0, 7) + "\n")
    values, failed = compare.load_set(str(head))
    assert values[("cold_check", "latency_p50_ms")] == [10.0]
    assert failed and "7 of 1000" in failed[0]
    assert compare.main([str(base), str(head)]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_runner_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, no result."""
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "cold_check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
