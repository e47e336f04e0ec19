"""Sharded verification: deterministic plans, byte-identical merges.

The load-bearing property is differential: for any project and any
shard count, merging the per-shard results must reproduce the serial
report *byte for byte*; the entry-path harness
(``test_entry_paths.py``) pins it over random projects.  This suite
pins the plans and the merge's refusals, and the subprocess tests pin
the same property end to end through ``repro check --shards`` workers
and ``repro coordinate``, including cross-worker cache warming through
a live ``repro cache serve`` daemon.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import (
    BatchVerifier,
    EngineError,
    InferenceCache,
    coordinate,
    merge_shard_results,
    plan_shards,
    run_shard,
    shard_result_from_dict,
    shard_result_to_dict,
)
from repro.engine.backends.server import run_cache_server
from repro.frontend.parse import parse_module
from repro.workloads.hierarchy import (
    HierarchyShape,
    project_source,
)

SHAPE = HierarchyShape(base_operations=4, subsystems=2, seed=29)


def _project(pairs=3, correct=False):
    return parse_module(project_source(SHAPE, pairs=pairs, correct=correct))


def _serial_report(module, violations):
    return BatchVerifier(module, violations).run().merged().format()


def _sharded_report(module, violations, shards):
    plans = plan_shards(module, shards)
    results = []
    for plan in plans:
        batch = run_shard(module, violations, plan)
        # Round-trip through the wire format, exactly like coordinate().
        payload = json.loads(json.dumps(shard_result_to_dict(plan, batch)))
        results.append(shard_result_from_dict(payload))
    return merge_shard_results(module, violations, results)


class TestShardPlans:
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_partition_is_disjoint_and_complete(self, shards):
        module, _ = _project()
        plans = plan_shards(module, shards)
        assert len(plans) == shards
        full = BatchVerifier(module).plan().classes()
        seen = set()
        for index, plan in enumerate(plans):
            assert plan.index == index
            assert plan.shards == shards
            assert not (seen & plan.classes)
            seen |= plan.classes
        assert seen == full

    def test_plans_are_deterministic(self):
        module, _ = _project()
        assert plan_shards(module, 3) == plan_shards(module, 3)

    def test_waves_balance_each_layer(self):
        module, _ = _project(pairs=4)
        plans = plan_shards(module, 2)
        # Round-robin within each wave: shard sizes differ by at most
        # one class per wave.
        for wave in BatchVerifier(module).plan().waves:
            sizes = [
                sum(1 for name in wave if name in plan.classes) for plan in plans
            ]
            assert max(sizes) - min(sizes) <= 1

    def test_rejects_nonpositive_shards(self):
        module, _ = _project()
        with pytest.raises(EngineError):
            plan_shards(module, 0)


class TestMergeDifferential:
    def test_more_shards_than_classes(self):
        module, violations = _project(pairs=1)
        shards = len(module.classes) + 3
        merged = _sharded_report(module, violations, shards)
        assert merged.merged().format() == _serial_report(module, violations)

    def test_merge_rejects_missing_shard(self):
        module, violations = _project()
        plans = plan_shards(module, 2)
        batch = run_shard(module, violations, plans[0])
        only_half = [
            shard_result_from_dict(shard_result_to_dict(plans[0], batch))
        ]
        with pytest.raises(EngineError, match="incomplete shard set"):
            merge_shard_results(module, violations, only_half)

    def test_merge_sums_counters_and_takes_max_wall(self):
        module, violations = _project()
        plans = plan_shards(module, 2)
        results = []
        for plan in plans:
            cache = InferenceCache(backend=None)
            batch = run_shard(module, violations, plan, cache=cache)
            results.append(
                shard_result_from_dict(shard_result_to_dict(plan, batch))
            )
        merged = merge_shard_results(module, violations, results)
        assert merged.metrics.classes == sum(len(p.classes) for p in plans)
        assert merged.metrics.wall_seconds == max(
            float(r.metrics["wall_seconds"]) for r in results
        )
        assert merged.metrics.class_misses == sum(
            int(r.metrics["class_misses"]) for r in results
        )


def _write_project(tmp_path: Path) -> Path:
    source = project_source(SHAPE, pairs=2, correct=False)
    target = tmp_path / "project.py"
    target.write_text(source, encoding="utf-8")
    return target


def _cli(args, cwd):
    import os

    import repro

    env = dict(os.environ)
    # The subprocess runs from ``cwd``; a relative PYTHONPATH inherited
    # from the test runner would stop resolving there.
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


class TestCoordinateSubprocess:
    def test_coordinate_matches_serial_check(self, tmp_path):
        target = _write_project(tmp_path)
        serial = _cli(["check", str(target)], tmp_path)
        run = coordinate(target, shards=2)
        assert run.batch.merged().format() + "\n" == serial.stdout
        assert len(run.shard_metrics) == 2

    def test_cross_worker_remote_hits(self, tmp_path):
        target = _write_project(tmp_path)
        server = run_cache_server(tmp_path / "served")
        try:
            cold = coordinate(
                target,
                shards=2,
                worker_cache_root=tmp_path / "cold-workers",
                remote_cache=server.endpoint,
            )
            assert cold.batch.metrics.remote_puts > 0
            # A second fleet with empty local trees must be warmed
            # entirely across the wire.
            warm = coordinate(
                target,
                shards=2,
                worker_cache_root=tmp_path / "warm-workers",
                remote_cache=server.endpoint,
            )
            assert warm.batch.metrics.remote_hits > 0
            assert warm.batch.metrics.class_misses == 0
            assert (
                warm.batch.merged().format() == cold.batch.merged().format()
            )
            # And the report still matches a cache-free serial run.
            serial = BatchVerifier(*_load(target)).run().merged().format()
            assert warm.batch.merged().format() == serial
        finally:
            server.shutdown()
            server.server_close()


def _load(target):
    from repro.frontend.parse import parse_file

    return parse_file(str(target))


class TestRemoteCacheCLI:
    def test_check_remote_cache_flag_warms_second_worker(self, tmp_path):
        target = _write_project(tmp_path)
        server = run_cache_server(tmp_path / "served")
        try:
            first = _cli(
                [
                    "check", str(target),
                    "--cache", "--cache-dir", str(tmp_path / "w1"),
                    "--remote-cache", server.endpoint,
                ],
                tmp_path,
            )
            assert first.returncode in (0, 1), first.stderr
            second = _cli(
                [
                    "check", str(target), "--stats",
                    "--cache", "--cache-dir", str(tmp_path / "w2"),
                    "--remote-cache", server.endpoint,
                ],
                tmp_path,
            )
            assert second.returncode == first.returncode
            assert "remote cache" in second.stdout
            report_first = first.stdout.split("engine metrics:")[0]
            report_second = second.stdout.split("engine metrics:")[0]
            assert report_first.strip() == report_second.strip()
        finally:
            server.shutdown()
            server.server_close()

    def test_reported_uploads_include_queued_ones(self, tmp_path, capsys):
        """A slow remote still has uploads queued when the run ends; the
        shard result, ``--stats`` and ``--metrics-out`` count them all."""
        from repro.cli import main

        target = _write_project(tmp_path)
        server = run_cache_server(tmp_path / "served")
        try:
            code = main(
                [
                    "check", str(target), "--stats",
                    "--cache", "--cache-dir", str(tmp_path / "local"),
                    "--remote-cache", server.endpoint,
                    "--faults", "remote-put:delay:*:arg=0.1",
                    "--shards", "1", "--shard-index", "0",
                    "--shard-out", str(tmp_path / "shard.json"),
                    "--metrics-out", str(tmp_path / "metrics.json"),
                ]
            )
        finally:
            server.shutdown()
            server.server_close()
        assert code in (0, 1)
        metrics = json.loads((tmp_path / "metrics.json").read_text("utf-8"))
        writes = metrics["cache"]["writes"]
        assert writes > 0
        assert metrics["remote"]["puts"] == writes
        shard = json.loads((tmp_path / "shard.json").read_text("utf-8"))
        assert shard["metrics"]["remote_puts"] == writes
        assert f"{writes} upload(s)" in capsys.readouterr().out

    def test_shard_flags_validate(self, tmp_path):
        target = _write_project(tmp_path)
        missing_index = _cli(["check", str(target), "--shards", "2"], tmp_path)
        assert missing_index.returncode != 0
        assert "--shard-index" in missing_index.stderr
        bad_index = _cli(
            ["check", str(target), "--shards", "2", "--shard-index", "2"],
            tmp_path,
        )
        assert bad_index.returncode != 0
        incremental = _cli(
            [
                "check", str(target),
                "--shards", "2", "--shard-index", "0", "--incremental",
            ],
            tmp_path,
        )
        assert incremental.returncode != 0
        assert "incompatible" in incremental.stderr
