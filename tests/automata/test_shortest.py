"""Shortest words (the counterexample machinery) and bounded word
enumeration, on the kernel."""

from repro.automata.kernel import (
    Alphabet,
    BitNFABuilder,
    bitset_difference_counterexample,
    determinize_bitset,
    thompson_bitnfa,
)
from repro.regex.parser import parse_regex

ALPHABET = frozenset({"a", "b"})


def dfa_of(text: str):
    return determinize_bitset(thompson_bitnfa(parse_regex(text), ALPHABET))


#: The empty language: the difference against it is the language itself.
NOTHING = determinize_bitset(BitNFABuilder().build(0, 0, Alphabet(ALPHABET)))


def shortest_accepted_word(dfa):
    return bitset_difference_counterexample(dfa, NOTHING)


class TestShortestDfa:
    def test_empty_word_when_initial_accepting(self):
        assert shortest_accepted_word(dfa_of("a*")) == ()

    def test_none_for_empty_language(self):
        assert shortest_accepted_word(dfa_of("{}")) is None

    def test_shortest_length(self):
        assert shortest_accepted_word(dfa_of("a . a . a + b . b")) == ("b", "b")

    def test_alphabetical_tie_break(self):
        assert shortest_accepted_word(dfa_of("b + a")) == ("a",)

    def test_long_chain(self):
        assert shortest_accepted_word(dfa_of("a . b . a . b")) == ("a", "b", "a", "b")


class TestShortestNfa:
    def test_matches_dfa_result(self):
        assert shortest_accepted_word(dfa_of("a . a + b")) == ("b",)

    def test_empty_language(self):
        assert shortest_accepted_word(dfa_of("{}")) is None

    def test_epsilon(self):
        assert shortest_accepted_word(dfa_of("eps")) == ()


class TestIterAcceptedWords:
    def test_enumerates_in_length_lex_order(self):
        words = list(dfa_of("a* . b").accepted_words(3))
        assert words == [
            ("b",),
            ("a", "b"),
            ("a", "a", "b"),
        ]

    def test_respects_bound(self):
        assert list(dfa_of("a*").accepted_words(2)) == [(), ("a",), ("a", "a")]
