"""Integration: every artifact of the paper in one place.

Each test names the paper artifact it reproduces; the benchmark harness
regenerates the same artifacts with timing.
"""

from repro.core.checker import check_source
from repro.core.dependency import extract_dependency_graph
from repro.core.spec import ClassSpec
from repro.frontend.parse import parse_module
from repro.lang.builder import paper_example_program
from repro.lang.inference import behavior
from repro.lang.semantics import ONGOING, RETURNED, derivable
from repro.paper import SECTION_2_MODULE, SECTOR_MODULE
from repro.regex.ast import format_regex


class TestTable1:
    """Every annotation of Table 1 parses and lands in the model."""

    SOURCE = (
        '@claim("G (a.go -> F a.stop)")\n'
        "@sys(['a'])\n"
        "class Composite:\n"
        "    def __init__(self):\n"
        "        self.a = Base()\n"
        "    @op_initial\n"
        "    def start(self):\n"
        "        self.a.go()\n"
        "        return ['middle']\n"
        "    @op\n"
        "    def middle(self):\n"
        "        return ['stop']\n"
        "    @op_final\n"
        "    def stop(self):\n"
        "        self.a.stop()\n"
        "        return []\n"
        "    @op_initial_final\n"
        "    def both(self):\n"
        "        self.a.go()\n"
        "        self.a.stop()\n"
        "        return []\n"
        "\n"
        "@sys\n"
        "class Base:\n"
        "    @op_initial\n"
        "    def go(self):\n"
        "        return ['stop']\n"
        "    @op_final\n"
        "    def stop(self):\n"
        "        return []\n"
    )

    def test_all_annotations_recognised(self):
        module, violations = parse_module(self.SOURCE)
        assert violations == []
        composite = module.get_class("Composite")
        base = module.get_class("Base")
        # @sys base class vs @sys([...]) composite class.
        assert not base.is_composite
        assert composite.is_composite
        # @claim
        assert composite.claims == ("G (a.go -> F a.stop)",)
        # the four @op kinds
        kinds = {op.name: op.kind.value for op in composite.operations}
        assert kinds == {
            "start": "op_initial",
            "middle": "op",
            "stop": "op_final",
            "both": "op_initial_final",
        }

    def test_module_verifies(self):
        assert check_source(self.SOURCE).ok


class TestFigure1:
    def test_valve_spec_language(self, valve):
        """Figure 1's diagram, read as the language it denotes."""
        nfa = ClassSpec.of(valve).bitnfa()
        assert nfa.accepts(["test", "open", "close"])
        assert nfa.accepts(["test", "clean", "test", "open", "close"])
        assert not nfa.accepts(["test", "open"])


class TestFigure2AndSection22:
    def test_full_report(self):
        """Both §2.2 error reports, verbatim where the paper is minimal."""
        result = check_source(SECTION_2_MODULE)
        formatted = result.format()
        assert (
            "Error in specification: INVALID SUBSYSTEM USAGE\n"
            "Counter example: open_a, a.test, a.open\n"
            "Subsystems errors:\n"
            "  * Valve 'a': test, >open< (not final)"
        ) in formatted
        assert (
            "Error in specification: FAIL TO MEET REQUIREMENT\n"
            "Formula: (!a.open) W b.open\n"
        ) in formatted


class TestFigure3:
    def test_sector_dependency_graph(self):
        module, _ = parse_module(SECTOR_MODULE)
        graph = extract_dependency_graph(module.get_class("Sector"))
        assert len(graph.entries) == 4  # "we have 4 methods ... 4 entry nodes"
        assert len(graph.exits_of("open_a")) == 2  # "2 return statements"


class TestFigure4:
    def test_example_1(self):
        program = paper_example_program()
        assert derivable(ONGOING, ("a", "c", "a", "c"), program)

    def test_example_2(self):
        program = paper_example_program()
        assert derivable(RETURNED, ("a", "c", "a", "b"), program)

    def test_example_3(self):
        inferred = behavior(paper_example_program())
        assert format_regex(inferred.ongoing) == "(a . c)*"
        returned = [format_regex(r) for _e, r in inferred.returned]
        assert returned == ["(a . c)* . a . b"]


class TestTheorems:
    def test_bounded_mechanisation(self):
        from repro.lang.metatheory import check_all_theorems

        for report in check_all_theorems(max_program_size=3, max_trace_length=4):
            assert report.holds, report.summary()
