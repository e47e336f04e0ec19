"""The ``repro mine`` subcommand, end to end (in-process)."""

import json

import pytest

from repro.cli import main
from repro.mine.corpus import TraceCorpus
from repro.workloads.hierarchy import HierarchyShape, module_source

SHAPE = HierarchyShape(
    base_operations=3, subsystems=2, composite_operations=2, seed=31
)


@pytest.fixture()
def workload(tmp_path):
    path = tmp_path / "workload.py"
    path.write_text(module_source(SHAPE, correct=True), encoding="utf-8")
    return str(path)


class TestMineCommand:
    def test_clean_module_exits_0(self, workload, capsys):
        assert main(["mine", workload, "--diff"]) == 0
        out = capsys.readouterr().out
        assert "-> CLEAN" in out
        assert "EQUIVALENT" in out
        assert "class Device" in out and "class Controller" in out

    def test_single_class_selection(self, workload, capsys):
        assert main(["mine", workload, "Device", "--diff"]) == 0
        out = capsys.readouterr().out
        assert "class Device" in out
        assert "class Controller" not in out

    def test_unknown_class_is_usage_error(self, workload):
        with pytest.raises(SystemExit):
            main(["mine", workload, "NoSuchClass"])

    def test_missing_file_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["mine", "/nonexistent/file.py"])

    def test_output_is_byte_deterministic(self, workload, capsys):
        assert main(["mine", workload, "--diff", "--seed", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["mine", workload, "--diff", "--seed", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_corpus_out_is_replayable(self, workload, tmp_path, capsys):
        corpus_file = tmp_path / "corpus.json"
        assert main(["mine", workload, "--corpus-out", str(corpus_file)]) == 0
        capsys.readouterr()
        payload = json.loads(corpus_file.read_text(encoding="utf-8"))
        assert set(payload) == {"Device", "Controller"}
        for entry in payload.values():
            corpus = TraceCorpus.from_payload(entry)
            assert len(corpus) > 0
            assert corpus.to_payload() == entry

    def test_metrics_and_prometheus_outputs(self, workload, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.json"
        prom_file = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "mine",
                    workload,
                    "--diff",
                    "--metrics-out",
                    str(metrics_file),
                    "--prom-out",
                    str(prom_file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        metrics = json.loads(metrics_file.read_text(encoding="utf-8"))
        assert metrics["mine"]["classes"] == 2
        assert metrics["mine"]["unsound"] == 0
        assert "obs" in metrics
        prom = prom_file.read_text(encoding="utf-8")
        assert "repro_mine_classes 2" in prom
        assert 'repro_mine_findings_total{kind="unsound"} 0' in prom
        assert 'repro_mine_states{stage="pta"} ' in prom
        assert 'repro_mine_states{stage="mined"} ' in prom
        # A mining run has no engine: only the mine and phase families.
        families = [
            line.split()[2]
            for line in prom.splitlines()
            if line.startswith("# TYPE ")
        ]
        assert families == [
            "repro_mine_classes",
            "repro_mine_corpus_total",
            "repro_mine_states",
            "repro_mine_merges_total",
            "repro_mine_findings_total",
            "repro_mine_wall_seconds",
            "repro_phase_seconds_total",
            "repro_phase_calls_total",
        ]

    def test_trace_prints_span_tree(self, workload, capsys):
        assert main(["mine", workload, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "mine-collect" in out
        assert "mine-learn" in out
        assert "mine-learned" in out

    def test_constructor_with_required_args_is_a_clean_error(
        self, tmp_path
    ):
        """Classes the default no-argument factory cannot build must
        fail with a usage error, not a traceback."""
        path = tmp_path / "needs_args.py"
        path.write_text(
            "from repro.frontend.decorators import sys, op_initial_final\n"
            "\n"
            "@sys\n"
            "class Needy:\n"
            "    def __init__(self, pin):\n"
            "        self.pin = pin\n"
            "\n"
            "    @op_initial_final\n"
            "    def ping(self):\n"
            "        return []\n",
            encoding="utf-8",
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", str(path)])
        assert "cannot instantiate Needy" in str(excinfo.value)

    def test_checker_clean_module_can_still_fail_dynamically(
        self, tmp_path, capsys
    ):
        """Mining executes the module, so it surfaces runtime faults the
        static checker cannot see: in the paper's listings, ``Valve``
        stores a Pin in ``self.clean``, shadowing the ``clean``
        operation — ``GoodSector``'s ``self.a.clean()`` call crashes
        even though ``repro check`` verifies the module."""
        from repro.paper import GOOD_MODULE

        path = tmp_path / "good.py"
        path.write_text(GOOD_MODULE, encoding="utf-8")
        assert main(["mine", str(path), "GoodSector"]) == 1
        out = capsys.readouterr().out
        assert "-> DIVERGENT" in out
        assert "note: crash in irrigate" in out
        assert "'Pin' object is not callable" in out

    def test_negative_max_sequences_is_a_usage_error(self, workload, capsys):
        """A negative cap is refused, not read as a slice from the end."""
        with pytest.raises(SystemExit) as raised:
            main(["mine", workload, "--max-sequences", "-1"])
        assert raised.value.code == 2
        assert capsys.readouterr().err == "error: max_sequences must be >= 0, got -1\n"


#: ``switch_on`` names ``dim``, which no operation declares.
LAMP = """\
from repro.frontend.decorators import op_final, op_initial, sys


@sys
class Lamp:
    @op_initial
    def switch_on(self):
        return ["switch_off", "dim"]

    @op_final
    def switch_off(self):
        return ["switch_on"]
"""

#: ``close`` is declared twice; the exits of a name are those of its
#: first operation, while the second makes ``close`` initial too.
DOOR = """\
from repro.frontend.decorators import op_final, op_initial, op_initial_final, sys


@sys
class Door:
    @op_initial
    def open(self):
        return ["close"]

    @op_final
    def close(self):
        return ["open"]

    @op_initial_final
    def close(self):
        return ["open"]
"""


class TestEdgeReports:
    """Exact ``repro mine`` reports (seed 0) for two spec shapes the
    monitor must keep reading as it always has."""

    def test_undeclared_next_method_is_a_note(self, tmp_path, capsys):
        path = tmp_path / "lamp.py"
        path.write_text(LAMP, encoding="utf-8")
        assert main(["mine", str(path)]) == 1
        assert capsys.readouterr().out == (
            f"mine {path}: 1 class(es), seed 0 -> DIVERGENT\n"
            "class Lamp: corpus 35 runs / 55 events / 4 lifecycles, "
            "coverage 1.00, mined 2 states (pta 8, merges 1)\n"
            "  note: crash in dim on random walk: MonitorError: "
            "Lamp declares no operation 'dim' (x23)\n"
        )

    def test_duplicate_operation_name(self, tmp_path, capsys):
        path = tmp_path / "door.py"
        path.write_text(DOOR, encoding="utf-8")
        assert main(["mine", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"mine {path}: 1 class(es), seed 0 -> CLEAN\n"
            "class Door: corpus 36 runs / 154 events / 13 lifecycles, "
            "coverage 1.00, mined 3 states (pta 25, merges 2)\n"
        )
