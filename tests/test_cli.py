"""The command-line interface, end to end (in-process)."""

import socket
import subprocess
import sys
from dataclasses import fields

import pytest

from repro.cli import main
from repro.mine.config import CollectConfig
from repro.paper import GOOD_MODULE, SECTION_2_MODULE, SECTOR_MODULE
from repro.serve.config import ServeConfig
from tests.serve.conftest import SRC_DIR


@pytest.fixture
def section2(tmp_path):
    path = tmp_path / "section2.py"
    path.write_text(SECTION_2_MODULE, encoding="utf-8")
    return str(path)


@pytest.fixture
def good(tmp_path):
    path = tmp_path / "good.py"
    path.write_text(GOOD_MODULE, encoding="utf-8")
    return str(path)


@pytest.fixture
def sector(tmp_path):
    path = tmp_path / "sector.py"
    path.write_text(SECTOR_MODULE, encoding="utf-8")
    return str(path)


def _usage_error(argv, capsys) -> str:
    """Run ``argv``; assert a usage error (exit 2); return its stderr."""
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: ")
    return stderr


def _daemon_usage_error(*argv) -> str:
    """Run ``repro *argv`` in a subprocess, so a daemon that boots by
    mistake cannot hang the suite; assert one ``error:`` line on stderr,
    nothing on stdout and exit 2; return the line."""
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC_DIR},
    )
    assert completed.returncode == 2, completed
    assert completed.stdout == ""
    lines = completed.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), completed.stderr
    return lines[0]


class _Built(Exception):
    """Carries the config a command built out of :func:`main`."""

    def __init__(self, config):
        super().__init__()
        self.config = config


def _built_config(monkeypatch, runner: str, argv):
    """The config ``main(argv)`` hands to ``runner`` (patched out)."""

    def capture(*args, **kwargs):
        raise _Built(kwargs.get("config", args[0]))

    monkeypatch.setattr(runner, capture)
    with pytest.raises(_Built) as built:
        main(argv)
    return built.value.config


class TestConfigFlags:
    """``repro serve`` and ``repro mine`` build their configs from flags
    declared on the config fields: each flag lands in its field."""

    def test_every_serve_flag_lands_in_its_field(self, tmp_path, monkeypatch):
        argv = [
            "serve", "--host", "0.0.0.0", "--port", "9000",
            "--cache-dir", str(tmp_path / "cache"),
            "--remote-cache", "http://127.0.0.1:1", "--queue-depth", "5",
            "--tenant-queue-cap", "3", "--tenant-concurrency", "4",
            "--workers", "6", "--engine-jobs", "2", "--executor", "process",
            "--deadline", "7.5", "--class-timeout", "2.5", "--job-retries", "0",
            "--breaker-threshold", "9", "--breaker-backoff", "0.5",
            "--breaker-max-backoff", "8", "--drain-grace", "0", "--trace",
        ]
        config = _built_config(monkeypatch, "repro.serve.http.serve_forever", argv)
        assert config == ServeConfig(
            host="0.0.0.0",
            port=9000,
            cache_dir=str(tmp_path / "cache"),
            remote_cache="http://127.0.0.1:1",
            queue_depth=5,
            tenant_queue_cap=3,
            tenant_concurrency=4,
            workers=6,
            engine_jobs=2,
            engine_executor="process",
            job_deadline=7.5,
            class_timeout=2.5,
            job_retries=0,
            breaker_threshold=9,
            breaker_backoff=0.5,
            breaker_max_backoff=8.0,
            drain_grace=0.0,
            trace=True,
        )
        defaulted = [f.name for f in fields(ServeConfig) if getattr(config, f.name) == f.default]
        assert defaulted == []

    def test_every_mine_flag_lands_in_its_field(self, monkeypatch):
        argv = [
            "mine", "m.py", "--seed", "7", "--random-runs", "3",
            "--max-random-len", "4", "--max-sequences", "5",
        ]
        config = _built_config(monkeypatch, "repro.mine.mine_path", argv)
        assert config == CollectConfig(
            seed=7, random_runs=3, max_random_len=4, max_sequences=5
        )
        defaulted = [f.name for f in fields(CollectConfig) if getattr(config, f.name) == f.default]
        assert defaulted == []

    def test_parser_defaults_are_the_config_defaults(self, monkeypatch):
        serve = _built_config(monkeypatch, "repro.serve.http.serve_forever", ["serve"])
        assert serve == ServeConfig()
        mine = _built_config(monkeypatch, "repro.mine.mine_path", ["mine", "m.py"])
        assert mine == CollectConfig()


class TestUnusableDirectoryOrAddress:
    """A cache directory that cannot be created or a listen address that
    cannot be bound is a usage error: one ``error:`` line, exit 2."""

    @pytest.fixture
    def a_file(self, tmp_path):
        path = tmp_path / "in-the-way"
        path.write_text("", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "argv", [["check", "{good}", "--cache"], ["profile", "{good}", "--cache"], ["cache", "stats"]]
    )
    def test_cache_dir_is_a_file(self, argv, good, a_file, capsys):
        argv = [arg.format(good=good) for arg in argv] + ["--cache-dir", a_file]
        stderr = _usage_error(argv, capsys)
        assert stderr.startswith(f"error: cannot use cache directory {a_file}: ")
        assert stderr.count("\n") == 1

    def test_coordinate_reports_each_shards_error(self, good, a_file, capsys):
        argv = ["coordinate", good, "--shards", "2", "--cache", "--cache-dir", a_file]
        stderr = _usage_error(argv, capsys)
        for shard in (0, 1):
            assert f"shard {shard}: exit 2: error: cannot use cache directory" in stderr
        assert stderr.count("\n") == 1

    def test_serve_cache_dir_is_a_file(self, a_file):
        line = _daemon_usage_error("serve", "--port", "0", "--cache-dir", a_file)
        assert line.startswith(f"error: cannot use cache directory {a_file}: ")

    def test_serve_on_a_bound_port(self, tmp_path):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            line = _daemon_usage_error(
                "serve", "--port", str(port), "--cache-dir", str(tmp_path / "cache")
            )
        assert line.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")
        assert "address already in use" in line.lower()

    def test_serve_port_out_of_range(self, tmp_path):
        line = _daemon_usage_error(
            "serve", "--port", "70000", "--cache-dir", str(tmp_path / "cache")
        )
        assert line == "error: port must be in [0, 65535], got 70000"

    def test_cache_serve_port_out_of_range(self, tmp_path):
        line = _daemon_usage_error(
            "cache", "serve", "--port", "70000", "--cache-dir", str(tmp_path / "cache")
        )
        assert line.startswith("error: cannot serve cache: ")
        assert "65535" in line


class TestCheck:
    def test_failing_module_exits_1(self, section2, capsys):
        assert main(["check", section2]) == 1
        out = capsys.readouterr().out
        assert "INVALID SUBSYSTEM USAGE" in out
        assert "FAIL TO MEET REQUIREMENT" in out

    def test_passing_module_exits_0(self, good, capsys):
        assert main(["check", good]) == 0
        assert "OK: specification verified" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        stderr = _usage_error(["check", "/nonexistent/file.py"], capsys)
        assert "no such file" in stderr

    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.py"
        path.write_bytes(b"# caf\xe9\n")
        stderr = _usage_error(["check", str(path)], capsys)
        assert stderr.startswith(f"error: cannot parse {path}: [syntax-error] ")
        assert "(latin1.py) (line 1)" in stderr


class TestBudgetTrip:
    """A command that builds a class's automaton outside the batch engine
    reports a state-budget trip as one ``error:`` line and exits 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["export", "{file}", "BadSector", "--what", "dfa"],
            ["nusmv", "{file}", "BadSector"],
            ["report", "{file}"],
            ["explain", "{file}"],
        ],
        ids=["export-dfa", "nusmv", "report", "explain"],
    )
    def test_budget_trip_is_an_error_line(self, argv, section2, monkeypatch, capsys):
        monkeypatch.setattr("repro.core.limits.DEFAULT_MAX_STATES", 2)
        assert main([part.format(file=section2) for part in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: state budget exceeded")
        assert err.count("\n") == 1


class TestCheckBatch:
    def test_jobs_flag_keeps_output_identical(self, section2, capsys):
        assert main(["check", section2]) == 1
        serial = capsys.readouterr().out
        assert main(["check", section2, "--jobs", "4"]) == 1
        assert capsys.readouterr().out == serial

    def test_cold_cache_runs_write_identical_class_entries(
        self, section2, tmp_path
    ):
        """Class entries are a pure function of their key: two cold runs
        into fresh directories leave byte-identical ``class/`` trees."""
        trees = []
        for run in ("first", "second"):
            cache_dir = tmp_path / run
            assert main(["check", section2, "--cache", "--cache-dir", str(cache_dir)]) == 1
            root = cache_dir / "class"
            trees.append(
                {
                    path.relative_to(root): path.read_bytes()
                    for path in sorted(root.rglob("*"))
                    if path.is_file()
                }
            )
        assert trees[0]
        assert trees[0] == trees[1]

    def test_cache_warm_run_identical_and_fully_hit(self, good, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["check", good, "--cache", "--cache-dir", cache_dir, "--stats"]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "engine metrics:" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "OK: specification verified" in warm
        assert "[cache]" in warm
        assert "[checked]" not in warm

    def test_non_utf8_cache_entry_heals_on_the_warm_run(self, good, tmp_path, capsys):
        """An entry whose bytes are not UTF-8 is a corrupt entry: the warm
        run recomputes that class, prints the cold report and reports
        one healed entry."""
        cache_dir = tmp_path / "cache"
        args = ["check", good, "--cache", "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        victim = next((cache_dir / "class").rglob("*.json"))
        victim.write_bytes(b"\xff\xfe{")
        assert main(args + ["--stats"]) == 0
        report, metrics = capsys.readouterr().out.split("\nengine metrics:\n")
        assert report == cold
        assert "cache healed          1 corrupt entry deleted" in metrics
        assert victim.read_bytes().startswith(b"{")  # rewritten whole

    def test_directory_project(self, tmp_path, capsys):
        from repro.workloads.hierarchy import HierarchyShape, project_files

        root = tmp_path / "project"
        root.mkdir()
        project_files(HierarchyShape(base_operations=3), 2, root)
        assert main(["check", str(root), "--jobs", "2", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "4 in 2 wave(s)" in out

    def test_process_executor(self, good, capsys):
        assert main(["check", good, "-j", "2", "--executor", "process"]) == 0
        assert "OK: specification verified" in capsys.readouterr().out

    def test_rejects_bad_jobs(self, good, capsys):
        stderr = _usage_error(["check", good, "--jobs", "0"], capsys)
        assert "jobs must be >= 1, got 0" in stderr


class TestCheckSupervisor:
    def test_supervisor_flags_keep_output_identical(self, section2, capsys):
        assert main(["check", section2]) == 1
        plain = capsys.readouterr().out
        args = [
            "check", section2,
            "--timeout", "60", "--max-states", "100000",
            "--retries", "3", "--keep-going",
        ]
        assert main(args) == 1
        assert capsys.readouterr().out == plain

    def test_injected_fault_quarantines_the_class(self, good, capsys):
        args = [
            "check", good, "--retries", "0",
            "--faults", "worker:raise:Valve",
        ]
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "ENGINE CRASH" in out
        assert "Valve" in out
        # Faults do not leak into the next in-process run.
        assert main(["check", good]) == 0

    def test_transparent_recovery_under_transient_fault(self, good, capsys):
        assert main(["check", good]) == 0
        healthy = capsys.readouterr().out
        args = [
            "check", good, "--retries", "2",
            "--faults", "worker:raise:*:times=1",
        ]
        assert main(args) == 0
        assert capsys.readouterr().out == healthy

    def test_fail_fast_aborts(self, good):
        from repro.cli import UsageError

        args = [
            "check", good, "--retries", "0", "--fail-fast",
            "--faults", "worker:raise:Valve",
        ]
        with pytest.raises(SystemExit, match="fail-fast") as raised:
            main(args)
        # A run outcome, not a usage error: the process exits 1.
        assert not isinstance(raised.value, UsageError)

    def test_bad_fault_spec_is_a_usage_error(self, good):
        with pytest.raises(SystemExit, match="unknown fault site"):
            main(["check", good, "--faults", "nowhere:raise:*"])

    def test_fail_fast_and_keep_going_conflict(self, good):
        with pytest.raises(SystemExit):
            main(["check", good, "--fail-fast", "--keep-going"])


class TestEngineLaunch:
    """Every engine command validates its launch settings the same way."""

    def test_malformed_remote_cache_is_a_usage_error(self, good, tmp_path, capsys):
        argv = [
            "check", good, "--cache-dir", str(tmp_path), "--remote-cache", "foo",
        ]
        assert "http:// or https://" in _usage_error(argv, capsys)

    def test_serve_refuses_malformed_remote_cache(self, tmp_path, capsys):
        argv = [
            "serve", "--port", "0", "--cache-dir", str(tmp_path),
            "--remote-cache", "foo",
        ]
        assert "http:// or https://" in _usage_error(argv, capsys)

    def test_serve_refuses_zero_engine_jobs(self, tmp_path, monkeypatch, capsys):
        """Refused at startup: with no engine worker, no job could run."""

        def serve_forever(config):  # fail, not serve forever, if it boots
            raise AssertionError("the daemon started")

        monkeypatch.setattr("repro.serve.http.serve_forever", serve_forever)
        argv = [
            "serve", "--port", "0", "--cache-dir", str(tmp_path),
            "--engine-jobs", "0",
        ]
        assert _usage_error(argv, capsys) == "error: engine_jobs must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", ["check", "profile", "coordinate"])
    def test_bad_faults_env_is_a_usage_error(self, command, good, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "bogus")
        argv = [command, good] + (["--shards", "2"] if command == "coordinate" else [])
        assert "invalid REPRO_FAULTS" in _usage_error(argv, capsys)


class TestCoordinate:
    """``repro coordinate`` through :func:`main`, shard workers and all."""

    def test_matches_check(self, tmp_path, capsys):
        from repro.workloads.hierarchy import HierarchyShape, project_files

        root = tmp_path / "project"
        root.mkdir()
        project_files(HierarchyShape(base_operations=3), 3, root, correct=False)
        code = main(["check", str(root)])
        checked = capsys.readouterr().out
        assert code == 1
        argv = [
            "coordinate", str(root), "--shards", "2",
            "--worker-cache-dir", str(tmp_path / "workers"),
        ]
        assert main(argv) == code
        assert capsys.readouterr().out == checked
        # Each worker cached into its own tree under --worker-cache-dir.
        assert sorted(p.name for p in (tmp_path / "workers").iterdir()) == [
            "worker-0", "worker-1",
        ]

    def test_reports_the_workers_usage_error(self, good, capsys):
        argv = ["coordinate", good, "--shards", "2", "--jobs", "0"]
        stderr = _usage_error(argv, capsys)
        assert "shard 0: exit 2: error: jobs must be >= 1, got 0" in stderr

    def test_refuses_malformed_remote_cache(self, good, capsys):
        argv = ["coordinate", good, "--shards", "2", "--remote-cache", "foo"]
        assert "http:// or https://" in _usage_error(argv, capsys)


class TestCacheCommand:
    def test_stats_and_clear(self, good, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["check", good, "--cache", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        stats = capsys.readouterr().out
        assert f"cache at {cache_dir}:" in stats
        assert "class" in stats and "total" in stats

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "total         0 entries" in capsys.readouterr().out

    def test_stats_on_missing_cache_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "never-created")
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_clear_removes_the_project_state(self, good, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["check", good, "--incremental", "--cache-dir", cache_dir]
        ) == 0
        assert (tmp_path / "cache" / "state.json").is_file()
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "state" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "and the project state" in capsys.readouterr().out
        assert not (tmp_path / "cache" / "state.json").exists()

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "no project state" in capsys.readouterr().out

    def test_verify_flags_and_repairs_corruption(self, good, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["check", good, "--cache", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()

        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0
        clean = capsys.readouterr().out
        assert "0 corrupt" in clean

        victim = next((cache_dir / "class").rglob("*.json"))
        victim.write_text("torn garbage", encoding="utf-8")

        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out and "--repair" in out
        assert victim.exists()  # audit alone never deletes

        assert main(
            ["cache", "verify", "--repair", "--cache-dir", str(cache_dir)]
        ) == 0
        assert "1 repaired" in capsys.readouterr().out
        assert not victim.exists()

    def test_verify_counts_a_non_utf8_entry_as_corrupt(self, good, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["check", good, "--cache", "--cache-dir", str(cache_dir)]) == 0
        victim = next((cache_dir / "class").rglob("*.json"))
        victim.write_bytes(b"\xff\xfe{")
        capsys.readouterr()

        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
        assert "1 corrupt" in capsys.readouterr().out
        assert main(
            ["cache", "verify", "--repair", "--cache-dir", str(cache_dir)]
        ) == 0
        assert "1 repaired" in capsys.readouterr().out
        assert not victim.exists()

    def test_stats_counts_orphans_and_gc_sweeps_them(
        self, good, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        assert main(["check", good, "--cache", "--cache-dir", str(cache_dir)]) == 0
        (cache_dir / "class" / ".tmp-orphan.json").write_text(
            "debris", encoding="utf-8"
        )
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "orphaned temp files: 1" in capsys.readouterr().out

        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert "swept 1 orphaned temp file" in capsys.readouterr().out

        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "orphaned temp files: 0" in capsys.readouterr().out

    def test_check_leaves_old_orphans_for_gc(self, good, tmp_path, capsys):
        import os

        cache_dir = tmp_path / "cache"
        (cache_dir / "class").mkdir(parents=True)
        orphan = cache_dir / "class" / ".tmp-crashed.json"
        orphan.write_text("debris", encoding="utf-8")
        os.utime(orphan, (0, 0))  # older than any age gate
        assert main(["check", good, "--cache", "--cache-dir", str(cache_dir)]) == 0
        assert orphan.exists()  # opening the cache walks nothing
        capsys.readouterr()

        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert "swept 1 orphaned temp file" in capsys.readouterr().out
        assert not orphan.exists()

    def test_gc_min_age_spares_young_orphans(self, good, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["check", good, "--cache", "--cache-dir", str(cache_dir)]) == 0
        (cache_dir / "class" / ".tmp-young.json").write_text(
            "debris", encoding="utf-8"
        )
        capsys.readouterr()
        assert main(
            ["cache", "gc", "--min-age", "3600", "--cache-dir", str(cache_dir)]
        ) == 0
        assert "swept 0" in capsys.readouterr().out


class TestIncrementalCheck:
    def test_warm_run_reuses_and_keeps_output_identical(
        self, good, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        args = ["check", good, "--incremental", "--cache-dir", cache_dir]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args + ["--stats"]) == 0
        warm = capsys.readouterr().out
        assert cold.splitlines()[0] in warm
        assert "(100% reuse)" in warm
        assert "[state]" in warm

    def test_incremental_report_matches_plain_check(
        self, section2, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        assert main(["check", section2]) == 1
        plain = capsys.readouterr().out
        args = ["check", section2, "--incremental", "--cache-dir", cache_dir]
        assert main(args) == 1
        assert capsys.readouterr().out == plain
        assert main(args) == 1  # warm: verdicts spliced from state
        assert capsys.readouterr().out == plain

    def test_since_state_flag_uses_explicit_file(self, good, tmp_path, capsys):
        state_file = str(tmp_path / "elsewhere" / "snapshot.json")
        assert main(["check", good, "--since-state", state_file]) == 0
        capsys.readouterr()
        assert main(
            ["check", good, "--since-state", state_file, "--stats"]
        ) == 0
        assert "(100% reuse)" in capsys.readouterr().out


class TestStateCommand:
    def test_show_and_reset(self, good, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["check", good, "--incremental", "--cache-dir", cache_dir]
        ) == 0
        capsys.readouterr()

        assert main(["state", "show", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "project state at" in out
        assert "generation 1  (checksum seal intact)" in out
        assert "wave" in out and "fp" in out and "spec" in out

        assert main(["state", "reset", "--cache-dir", cache_dir]) == 0
        assert "removed project state" in capsys.readouterr().out

        assert main(["state", "reset", "--cache-dir", cache_dir]) == 0
        assert "no project state" in capsys.readouterr().out

    def test_show_without_state_exits_1(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["state", "show", "--cache-dir", cache_dir]) == 1
        assert "no usable project state" in capsys.readouterr().out


class TestModel:
    def test_prints_inferred_regexes(self, section2, capsys):
        assert main(["model", section2]) == 0
        out = capsys.readouterr().out
        assert "a.test . a.open" in out
        assert "class BadSector:" in out


class TestDeps:
    def test_text_output(self, sector, capsys):
        assert main(["deps", sector, "Sector"]) == 0
        out = capsys.readouterr().out
        assert "4 entry node(s), 6 exit node(s)" in out

    def test_dot_output(self, sector, capsys):
        assert main(["deps", sector, "Sector", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_class_required_when_ambiguous(self, sector):
        with pytest.raises(SystemExit):
            main(["deps", sector])

    def test_unknown_class(self, sector):
        with pytest.raises(SystemExit):
            main(["deps", sector, "Ghost"])


class TestViz:
    def test_text(self, section2, capsys):
        assert main(["viz", section2, "Valve"]) == 0
        assert "-> test [initial]" in capsys.readouterr().out

    def test_dot(self, section2, capsys):
        assert main(["viz", section2, "Valve", "--dot"]) == 0
        assert '"test" -> "open";' in capsys.readouterr().out

    def test_output_file(self, section2, tmp_path, capsys):
        target = tmp_path / "valve.dot"
        assert main(["viz", section2, "Valve", "--dot", "-o", str(target)]) == 0
        assert target.read_text(encoding="utf-8").startswith("digraph")


class TestExplain:
    def test_narrates_usage_error(self, section2, capsys):
        assert main(["explain", section2]) == 1
        out = capsys.readouterr().out
        assert "Explanation for BadSector:" in out
        assert "during open_a:" in out
        assert "not in a final state" in out

    def test_clean_module_has_no_explanations(self, good, capsys):
        assert main(["explain", good]) == 0
        out = capsys.readouterr().out
        assert "Explanation" not in out


class TestExport:
    def test_spec_json(self, section2, capsys):
        import json

        assert main(["export", section2, "Valve", "--what", "spec"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "class-spec"
        assert payload["name"] == "Valve"

    def test_deps_json(self, sector, capsys):
        import json

        assert main(["export", sector, "Sector", "--what", "deps"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "dependency-graph"
        assert len(payload["entries"]) == 4

    def test_dfa_json_round_trips(self, section2, capsys):
        import json

        from repro.core.model_io import dfa_from_dict

        assert main(["export", section2, "BadSector", "--what", "dfa"]) == 0
        payload = json.loads(capsys.readouterr().out)
        dfa = dfa_from_dict(payload)
        assert dfa.accepts(["open_a", "a.test", "a.open"])


class TestNusmv:
    def test_emits_module(self, section2, capsys):
        assert main(["nusmv", section2, "BadSector"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("MODULE main")
        assert "LTLSPEC" in out  # the claim is emitted


class TestSuite:
    def test_prints_sequences(self, section2, capsys):
        assert main(["suite", section2, "Valve"]) == 0
        out = capsys.readouterr().out
        assert "(empty lifecycle)" in out
        assert "test, open, close" in out

    def test_max_caps_output(self, section2, capsys):
        assert main(["suite", section2, "Valve", "--max", "2"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 2
        assert main(["suite", section2, "Valve", "--max", "0"]) == 0
        assert capsys.readouterr().out == ""

    def test_negative_max_is_a_usage_error(self, section2, capsys):
        """A negative cap is refused, not read as a slice from the end."""
        stderr = _usage_error(["suite", section2, "Valve", "--max", "-2"], capsys)
        assert stderr == "error: max_sequences must be >= 0, got -2\n"


class TestReport:
    def test_prints_markdown(self, section2, capsys):
        assert main(["report", section2]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Verification report")
        assert "## class `BadSector`" in out

    def test_writes_file(self, good, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", good, "-o", str(target)]) == 0
        assert target.read_text(encoding="utf-8").startswith("# Verification report")


class TestTheorems:
    def test_runs_and_passes(self, capsys):
        assert main(["theorems", "--size", "3", "--length", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("HOLDS") == 5
