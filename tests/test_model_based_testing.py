"""Model-based testing: path generation and the conformance harness."""

import pytest

from repro.core.spec import ClassSpec
from repro.frontend.parse import parse_module
from repro.testing.conformance import Outcome, check_conformance, generate_suite
from repro.testing.paths import (
    shortest_prefixes,
    shortest_suffixes,
    state_cover,
    transition_cover,
)
from tests.automata.machines import spec_table_accepts


@pytest.fixture
def valve_dfa(valve):
    return ClassSpec.of(valve).dfa()


def walk(dfa, word, state=None):
    """The state ``word`` leads to from ``state`` (default: initial)."""
    state = dfa.initial if state is None else state
    for symbol in word:
        state = dfa.successor(state, dfa.alphabet.id_of(symbol))
    return state


class TestPaths:
    def test_prefixes_reach_all_states(self, valve_dfa):
        prefixes = shortest_prefixes(valve_dfa)
        assert set(prefixes) == set(range(valve_dfa.n))  # all reachable
        for state, word in prefixes.items():
            assert walk(valve_dfa, word) == state

    def test_suffixes_complete_to_acceptance(self, valve_dfa):
        suffixes = shortest_suffixes(valve_dfa)
        for state, word in suffixes.items():
            assert valve_dfa.accepting >> walk(valve_dfa, word, state) & 1

    def test_transition_cover_words_accepted(self, valve, valve_dfa):
        spec = ClassSpec.of(valve)
        for word in transition_cover(valve_dfa):
            assert valve_dfa.accepts(word)
            assert spec_table_accepts(spec, word)

    def test_transition_cover_covers_every_live_transition(self, valve_dfa):
        suite = transition_cover(valve_dfa)
        prefixes = shortest_prefixes(valve_dfa)
        suffixes = shortest_suffixes(valve_dfa)
        live = {
            (source, symbol)
            for source, symbol, target in valve_dfa.moves()
            if source in prefixes and target in suffixes
        }
        covered = set()
        for word in suite:
            state = valve_dfa.initial
            for symbol in word:
                covered.add((state, symbol))
                state = walk(valve_dfa, [symbol], state)
        assert live <= covered

    def test_empty_lifecycle_included(self, valve_dfa):
        assert () in transition_cover(valve_dfa)

    def test_deterministic_ordering(self, valve_dfa):
        assert transition_cover(valve_dfa) == transition_cover(valve_dfa)

    def test_state_cover_smaller_or_equal(self, valve_dfa):
        assert len(state_cover(valve_dfa)) <= len(transition_cover(valve_dfa))


SPEC_SOURCE = (
    "@sys\n"
    "class Device:\n"
    "    @op_initial\n"
    "    def start(self):\n"
    "        return ['work', 'stop']\n"
    "    @op\n"
    "    def work(self):\n"
    "        return ['work', 'stop']\n"
    "    @op_final\n"
    "    def stop(self):\n"
    "        return []\n"
)


def device_spec() -> ClassSpec:
    module, violations = parse_module(SPEC_SOURCE)
    assert not violations
    return ClassSpec.of(module.get_class("Device"))


class TestSuiteGeneration:
    def test_suite_for_device(self):
        suite = generate_suite(device_spec())
        assert () in suite
        assert ("start", "stop") in suite
        assert any("work" in word for word in suite)

    def test_max_sequences_caps(self):
        suite = generate_suite(device_spec(), max_sequences=2)
        assert len(suite) == 2


class TestConformance:
    def test_faithful_implementation_conforms(self):
        class Device:
            def start(self):
                return ["work", "stop"]

            def work(self):
                return ["work", "stop"]

            def stop(self):
                return []

        report = check_conformance(Device, device_spec())
        assert report.conformant
        assert report.count(Outcome.VIOLATION) == 0
        assert report.count(Outcome.PASSED) == len(report.results)

    def test_lying_implementation_caught(self):
        class Device:
            def start(self):
                return ["work", "stop"]

            def work(self):
                return ["party"]  # undeclared next-method set

            def stop(self):
                return []

        report = check_conformance(Device, device_spec())
        assert not report.conformant
        assert report.count(Outcome.VIOLATION) >= 1
        assert "party" in report.violations()[0].detail

    def test_crashing_implementation_caught(self):
        class Device:
            def start(self):
                return ["work", "stop"]

            def work(self):
                raise RuntimeError("hardware fault")

            def stop(self):
                return []

        report = check_conformance(Device, device_spec())
        assert not report.conformant
        assert any("hardware fault" in r.detail for r in report.violations())

    def test_data_dependent_exits_are_infeasible_not_faults(self):
        module, _ = parse_module(
            "@sys\n"
            "class Gate:\n"
            "    @op_initial\n"
            "    def probe(self):\n"
            "        if ok:\n"
            "            return ['go']\n"
            "        return ['abort']\n"
            "    @op_final\n"
            "    def go(self):\n"
            "        return []\n"
            "    @op_final\n"
            "    def abort(self):\n"
            "        return []\n"
        )
        spec = ClassSpec.of(module.get_class("Gate"))

        class Gate:
            def probe(self):
                return ["go"]  # this implementation never aborts

            def go(self):
                return []

            def abort(self):
                return []

        report = check_conformance(Gate, spec)
        # The (probe, abort) sequence is infeasible for this data flow,
        # but that is over-approximation, not a fault.
        assert report.conformant
        assert report.count(Outcome.INFEASIBLE) >= 1

    def test_report_formatting(self):
        class Device:
            def start(self):
                return ["work", "stop"]

            def work(self):
                return ["work", "stop"]

            def stop(self):
                return []

        report = check_conformance(Device, device_spec())
        text = report.format()
        assert text.startswith("conformance of Device:")
        assert "CONFORMANT" in text
        assert "(empty lifecycle)" in text
