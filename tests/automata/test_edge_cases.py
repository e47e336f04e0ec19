"""Kernel edge cases: degenerate alphabets, multiple initial states,
projection and the lift reading, and their adjunction."""

from hypothesis import given, settings, strategies as st

from repro.automata.kernel import (
    Alphabet,
    BitDFA,
    bitset_difference_counterexample,
    bitset_included,
    bitset_intersection_counterexample,
    determinize_bitset,
    minimize_bitset,
    project_bitnfa,
    thompson_bitnfa,
)
from repro.regex.parser import parse_regex
from tests.automata.machines import make_dfa, make_nfa, word_dfa


def dfa_of(text: str, alphabet=()):
    return determinize_bitset(thompson_bitnfa(parse_regex(text), alphabet))


class TestDegenerateAutomata:
    def test_empty_alphabet_dfa(self):
        dfa = BitDFA(Alphabet(), 1, [], 0, 1)
        assert dfa.accepts([])
        assert -1 not in dfa.delta  # trivially total
        assert minimize_bitset(dfa).accepts([])

    def test_single_state_rejecting_everything(self):
        dfa = make_dfa([(0, "a", 0)], n=1, accepting=[], alphabet="a")
        anything = make_dfa([(0, "a", 0)], n=1, accepting=[0], alphabet="a")
        assert bitset_intersection_counterexample(dfa, anything) is None
        assert minimize_bitset(dfa).n == 1

    def test_multiple_initial_states_union_semantics(self):
        nfa = make_nfa([(0, "a", 2), (1, "b", 2)], initial=[0, 1], accepting=[2])
        assert nfa.accepts(["a"])
        assert nfa.accepts(["b"])
        dfa = determinize_bitset(nfa)
        assert dfa.accepts(["a"]) and dfa.accepts(["b"])

    def test_accepting_initial_with_epsilon_cycle(self):
        nfa = make_nfa([], initial=[0], accepting=[1], epsilon=[(0, 1), (1, 0)])
        assert nfa.accepts([])


class TestProjectionLiftAdjunction:
    """project ⊣ lift: L_proj(A) ⊆ B  iff  L(A) ⊆ lift(B), tested as a
    property over random regexes."""

    @given(
        st.sampled_from(
            [
                "x . a . b",
                "(x . a)* . b",
                "a . (x + b)",
                "x* . a . x* . b . x*",
                "a + x . b",
            ]
        ),
        st.sampled_from(["a . b", "(a . b)*", "a* . b", "a + b"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_adjunction(self, behavior_text, spec_text):
        behavior = thompson_bitnfa(parse_regex(behavior_text), {"a", "b", "x"})
        spec = dfa_of(spec_text, {"a", "b"})
        projected = determinize_bitset(project_bitnfa(behavior, {"a", "b"}))
        left_side = bitset_included(projected, spec)
        right_side = (
            bitset_difference_counterexample(
                determinize_bitset(behavior), spec, foreign="lift"
            )
            is None
        )
        assert left_side == right_side

    def test_projection_to_empty_alphabet(self):
        behavior = thompson_bitnfa(parse_regex("x . y"), {"x", "y"})
        projected = determinize_bitset(project_bitnfa(behavior, set()))
        assert projected.accepts([])

    def test_lift_of_everything_accepts_interleavings(self):
        spec = dfa_of("a", {"a"})
        xyz = {"a", "x", "y"}

        def lifted_accepts(word):
            return (
                bitset_difference_counterexample(word_dfa(word, xyz), spec, foreign="lift")
                is None
            )

        assert lifted_accepts(["x", "a", "y", "x"])
        assert not lifted_accepts(["x", "y"])


class TestWithAlphabetInteractions:
    def test_with_alphabet_then_minimize(self):
        small = minimize_bitset(dfa_of("a", {"a", "b"}))
        assert small.accepts(["a"])
        assert not small.accepts(["b"])

    def test_included_reflexive_after_alphabet_growth(self):
        dfa = dfa_of("(a . b)*")
        grown = dfa_of("(a . b)*", {"a", "b", "z"})
        assert bitset_included(dfa, grown)
        assert bitset_included(grown, dfa)
