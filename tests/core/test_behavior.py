"""The behavior automaton: spec structure with inferred bodies spliced in."""

from repro.automata.kernel import bitset_equivalent, determinize_bitset
from repro.core.behavior import behavior_nfa, operation_exit_regexes, subsystem_alphabet
from repro.regex.ast import format_regex


class TestExitRegexes:
    def test_bad_sector_open_a(self, bad_sector):
        operation = bad_sector.operation("open_a")
        per_exit = operation_exit_regexes(operation)
        assert format_regex(per_exit[0]) == "a.test . a.open"
        assert format_regex(per_exit[1]) == "a.test . a.clean"

    def test_bad_sector_open_b(self, bad_sector):
        operation = bad_sector.operation("open_b")
        per_exit = operation_exit_regexes(operation)
        assert format_regex(per_exit[0]) == "b.test . b.open . a.close . b.close"
        assert format_regex(per_exit[1]) == "b.test . b.clean . a.close"

    def test_base_class_bodies_are_epsilon(self, valve):
        for operation in valve.operations:
            for regex in operation_exit_regexes(operation).values():
                assert format_regex(regex) == "eps"


class TestBadSectorBehavior:
    def test_alphabet_joins_ops_and_calls(self, bad_sector):
        nfa = behavior_nfa(bad_sector)
        assert "open_a" in nfa.alphabet
        assert "a.test" in nfa.alphabet
        assert "b.close" in nfa.alphabet

    def test_paper_counterexample_is_a_behavior(self, bad_sector):
        # "open_a, a.test, a.open" — a complete lifecycle of BadSector.
        nfa = behavior_nfa(bad_sector)
        assert nfa.accepts(["open_a", "a.test", "a.open"])

    def test_clean_path_is_a_behavior(self, bad_sector):
        nfa = behavior_nfa(bad_sector)
        assert nfa.accepts(["open_a", "a.test", "a.clean"])

    def test_full_two_valve_run(self, bad_sector):
        nfa = behavior_nfa(bad_sector)
        assert nfa.accepts(
            [
                "open_a",
                "a.test",
                "a.open",
                "open_b",
                "b.test",
                "b.open",
                "a.close",
                "b.close",
            ]
        )

    def test_op_event_precedes_its_body(self, bad_sector):
        nfa = behavior_nfa(bad_sector)
        assert not nfa.accepts(["a.test", "open_a", "a.open"])

    def test_body_cannot_be_skipped(self, bad_sector):
        nfa = behavior_nfa(bad_sector)
        assert not nfa.accepts(["open_a"])  # body must run

    def test_exit_determines_continuation(self, bad_sector):
        nfa = behavior_nfa(bad_sector)
        # After the clean exit of open_a (returns []), open_b is illegal.
        assert not nfa.accepts(
            ["open_a", "a.test", "a.clean", "open_b", "b.test", "b.clean", "a.close"]
        )

    def test_empty_behavior_accepted(self, bad_sector):
        assert behavior_nfa(bad_sector).accepts([])


class TestBaseClassBehavior:
    def test_degenerates_to_spec(self, valve):
        from repro.core.spec import ClassSpec

        behavior = determinize_bitset(behavior_nfa(valve))
        spec = determinize_bitset(ClassSpec.of(valve).bitnfa())
        assert bitset_equivalent(behavior, spec)


class TestSubsystemAlphabet:
    def test_collects_called_labels(self, bad_sector):
        assert subsystem_alphabet(bad_sector, "a") == {"a.test", "a.open", "a.clean", "a.close"}
        assert subsystem_alphabet(bad_sector, "b") == {
            "b.test",
            "b.open",
            "b.clean",
            "b.close",
        }

    def test_unknown_field_is_empty(self, bad_sector):
        assert subsystem_alphabet(bad_sector, "z") == frozenset()
