"""The CLI surface of the observability layer.

``repro check`` gains ``--trace/--trace-out/--metrics-out/--prom-out``;
``repro profile`` is the human per-phase view.  The cardinal rule: any
of those flags may change what *extra* output exists, never the report.
"""

import json

import pytest

from repro.cli import main
from repro.paper import GOOD_MODULE
from repro.workloads.hierarchy import HierarchyShape, layered_project_source


@pytest.fixture()
def project(tmp_path):
    path = tmp_path / "layered.py"
    path.write_text(
        layered_project_source(HierarchyShape(), depth=3), encoding="utf-8"
    )
    return path


class TestCheckFlags:
    def test_report_is_byte_identical_with_sinks_enabled(
        self, project, tmp_path, capsys, no_ambient_faults
    ):
        assert main(["check", str(project)]) == 0
        plain = capsys.readouterr().out
        assert main([
            "check", str(project), "--jobs", "4",
            "--trace-out", str(tmp_path / "t.jsonl"),
            "--metrics-out", str(tmp_path / "m.json"),
            "--prom-out", str(tmp_path / "p.prom"),
        ]) == 0
        assert capsys.readouterr().out == plain

    def test_trace_out_is_a_valid_span_log(
        self, project, tmp_path, capsys, no_ambient_faults
    ):
        out = tmp_path / "t.jsonl"
        main(["check", str(project), "--trace-out", str(out)])
        lines = [
            json.loads(line)
            for line in out.read_text(encoding="utf-8").splitlines()
        ]
        assert lines[0]["type"] == "meta"
        kinds = {line["kind"] for line in lines if line["type"] == "span"}
        assert {"run", "wave", "class", "phase"} <= kinds
        # The module parse is traced too, as a top-level phase.
        parses = [
            line for line in lines
            if line["type"] == "span"
            and line["kind"] == "phase" and line["parent"] == 0
        ]
        assert len(parses) == 1 and parses[0]["name"] == "parse"

    def test_metrics_out_is_a_superset_of_engine_metrics(
        self, project, tmp_path, capsys, no_ambient_faults
    ):
        out = tmp_path / "m.json"
        main(["check", str(project), "--metrics-out", str(out)])
        payload = json.loads(out.read_text(encoding="utf-8"))
        for key in (
            "classes", "waves", "jobs", "executor", "wall_seconds",
            "cache", "supervisor", "per_class",
        ):
            assert key in payload
        assert payload["obs"]["phases"]
        assert payload["obs"]["spans"] > 0

    def test_prom_out_is_prometheus_text(
        self, project, tmp_path, capsys, no_ambient_faults
    ):
        out = tmp_path / "p.prom"
        main(["check", str(project), "--prom-out", str(out)])
        text = out.read_text(encoding="utf-8")
        assert text.startswith("# HELP repro_classes ")
        assert "repro_phase_seconds_total{" in text

    def test_incremental_families_only_on_incremental_runs(
        self, project, tmp_path, capsys, no_ambient_faults
    ):
        plain = tmp_path / "plain.prom"
        main(["check", str(project), "--prom-out", str(plain)])
        assert "repro_incremental_" not in plain.read_text(encoding="utf-8")
        incremental = tmp_path / "incremental.prom"
        main([
            "check", str(project), "--incremental",
            "--cache-dir", str(tmp_path / "cache"),
            "--prom-out", str(incremental),
        ])
        text = incremental.read_text(encoding="utf-8")
        assert 'repro_incremental_classes_total{kind="reused"} 0' in text
        assert "repro_incremental_reuse_ratio 0.0" in text

    def test_trace_shows_claims_and_vacuity_phases(
        self, tmp_path, capsys, no_ambient_faults
    ):
        target = tmp_path / "good.py"
        target.write_text(GOOD_MODULE, encoding="utf-8")
        trace = tmp_path / "t.jsonl"
        assert main(["check", str(target), "--trace", "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        tree = out[out.index("trace:"):].splitlines()
        claimed = next(i for i, line in enumerate(tree) if "class GoodSector" in line)
        depth = len(tree[claimed]) - len(tree[claimed].lstrip())
        phases = []
        for line in tree[claimed + 1:]:
            if len(line) - len(line.lstrip()) <= depth:
                break
            phases.append(line.split()[0])
        assert phases[-2:] == ["claims", "vacuity"]
        spans = [
            json.loads(line)
            for line in trace.read_text(encoding="utf-8").splitlines()
        ]
        (sector,) = [
            span for span in spans
            if span["type"] == "span" and span["name"] == "GoodSector"
        ]
        statuses = {
            span["name"]: span["status"]
            for span in spans
            if span["type"] == "span" and span["parent"] == sector["id"]
        }
        assert statuses["claims"] == statuses["vacuity"] == "ok"

    def test_trace_prints_the_tree_after_the_report(
        self, project, capsys, no_ambient_faults
    ):
        main(["check", str(project), "--trace"])
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "wave wave-0" in out
        assert out.index("trace:") > out.index("OK")


class TestProfile:
    def test_prints_the_per_phase_table(
        self, project, capsys, no_ambient_faults
    ):
        assert main(["profile", str(project)]) == 0
        out = capsys.readouterr().out
        assert "per-phase time breakdown:" in out
        for phase in ("parse", "infer", "determinize", "claims"):
            assert phase in out
        assert "slowest classes" in out

    def test_model_metrics_fills_the_minimize_phase(
        self, project, capsys, no_ambient_faults
    ):
        main(["profile", str(project), "--model-metrics"])
        table = capsys.readouterr().out
        minimize_row = next(
            line for line in table.splitlines()
            if line.strip().startswith("minimize")
        )
        calls = int(minimize_row.split()[1])
        assert calls > 0

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="no such file"):
            main(["profile", str(tmp_path / "missing.py")])
