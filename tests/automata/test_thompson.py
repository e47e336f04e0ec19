"""Thompson construction on the kernel: regex → NFA."""

from itertools import product

from repro.automata.kernel import determinize_bitset, minimize_bitset, thompson_bitnfa
from repro.regex.ast import EMPTY, EPSILON, concat, star, symbol, union
from repro.regex.enumerate_words import words_up_to
from repro.regex.parser import parse_regex

A = symbol("a")
B = symbol("b")


def regex_to_dfa(regex):
    """Regex → minimal DFA (Thompson, subset, Hopcroft)."""
    return minimize_bitset(determinize_bitset(thompson_bitnfa(regex)))


class TestThompson:
    def test_empty(self):
        nfa = thompson_bitnfa(EMPTY)
        assert not nfa.accepts([])
        assert not nfa.accepts(["a"])

    def test_epsilon(self):
        nfa = thompson_bitnfa(EPSILON)
        assert nfa.accepts([])
        assert not nfa.accepts(["a"])

    def test_symbol(self):
        nfa = thompson_bitnfa(A)
        assert nfa.accepts(["a"])
        assert not nfa.accepts([])

    def test_concat(self):
        nfa = thompson_bitnfa(concat(A, B))
        assert nfa.accepts(["a", "b"])
        assert not nfa.accepts(["a"])
        assert not nfa.accepts(["b", "a"])

    def test_union(self):
        nfa = thompson_bitnfa(union(A, B))
        assert nfa.accepts(["a"])
        assert nfa.accepts(["b"])
        assert not nfa.accepts(["a", "b"])

    def test_star(self):
        nfa = thompson_bitnfa(star(concat(A, B)))
        assert nfa.accepts([])
        assert nfa.accepts(["a", "b", "a", "b"])
        assert not nfa.accepts(["a"])

    def test_forced_alphabet(self):
        nfa = thompson_bitnfa(A, frozenset({"a", "b", "c"}))
        assert nfa.alphabet.symbols == ("a", "b", "c")
        assert not nfa.accepts(["c"])

    def test_agrees_with_enumeration(self):
        for text in ["(a . b)* + a", "a . (b + a)* . b", "(a + b) . (a + b)*"]:
            regex = parse_regex(text)
            nfa = thompson_bitnfa(regex)
            words = words_up_to(regex, 4, frozenset({"a", "b"}))
            for length in range(5):
                for word in product("ab", repeat=length):
                    assert nfa.accepts(word) == (tuple(word) in words), (text, word)


class TestRegexToDfa:
    def test_pipeline_produces_minimal_dfa(self):
        dfa = regex_to_dfa(parse_regex("(a + b)*"))
        assert dfa.n == 1
        assert dfa.accepts(["a", "b", "b"])

    def test_pipeline_language(self):
        dfa = regex_to_dfa(parse_regex("a . b*"))
        assert dfa.accepts(["a"])
        assert dfa.accepts(["a", "b", "b"])
        assert not dfa.accepts(["b"])
