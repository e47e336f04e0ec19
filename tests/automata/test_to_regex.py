"""State elimination: kernel DFA → regex (the Corollary 1 round trip)."""

from repro.automata.kernel import (
    bitdfa_to_regex,
    determinize_bitset,
    minimize_bitset,
    thompson_bitnfa,
)
from repro.regex.ast import EMPTY
from repro.regex.equivalence import equivalent
from repro.regex.matching import matches
from repro.regex.parser import parse_regex
from tests.automata.machines import make_dfa, make_nfa


class TestNfaToRegex:
    def test_simple_chain(self):
        dfa = make_dfa([(0, "a", 1), (1, "b", 2)], n=3, accepting=[2], alphabet="ab")
        assert equivalent(bitdfa_to_regex(dfa), parse_regex("a . b"))

    def test_loop(self):
        dfa = make_dfa([(0, "a", 0)], n=1, accepting=[0], alphabet="a")
        assert equivalent(bitdfa_to_regex(dfa), parse_regex("a*"))

    def test_empty_language(self):
        dfa = make_dfa([(0, "a", 1)], n=2, accepting=[], alphabet="a")
        assert bitdfa_to_regex(dfa) is EMPTY

    def test_epsilon_moves_preserved(self):
        nfa = make_nfa([(1, "a", 2)], initial=[0], accepting=[2], epsilon=[(0, 1)])
        regex = bitdfa_to_regex(determinize_bitset(nfa))
        assert matches(regex, ["a"])
        assert not matches(regex, [])

    def test_multiple_accepting_states(self):
        dfa = make_dfa(
            [(0, "a", 1), (0, "b", 2)], n=3, accepting=[1, 2], alphabet="ab"
        )
        assert equivalent(bitdfa_to_regex(dfa), parse_regex("a + b"))


class TestRoundTrip:
    def test_regex_nfa_dfa_regex(self):
        """Corollary 1's witness: the language survives the round trip."""
        for text in [
            "a",
            "a . b . a",
            "(a . b)*",
            "(a + b)* . a",
            "a . (b + a . a)* + b",
            "(a . c)* + (a . c)* . a . b",  # Example 3's inferred regex
        ]:
            original = parse_regex(text)
            dfa = minimize_bitset(determinize_bitset(thompson_bitnfa(original)))
            assert equivalent(original, bitdfa_to_regex(dfa)), text

    def test_round_trip_from_handmade_nfa(self):
        nfa = make_nfa([(0, "a", 1), (1, "b", 0)], initial=[0], accepting=[1])
        back = thompson_bitnfa(bitdfa_to_regex(determinize_bitset(nfa)))
        for word in ([], ["a"], ["a", "b"], ["a", "b", "a"], ["b"]):
            assert nfa.accepts(word) == back.accepts(word)
