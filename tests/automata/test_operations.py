"""Language decision procedures and the projection/lift pair, on the
kernel's fused search."""

import pytest

from repro.automata.kernel import (
    Alphabet,
    BitNFABuilder,
    bitset_difference_counterexample,
    bitset_equivalent,
    bitset_included,
    bitset_intersection_counterexample,
    determinize_bitset,
    project_bitnfa,
    thompson_bitnfa,
)
from repro.regex.ast import EMPTY, union_all
from repro.regex.parser import parse_regex
from tests.automata.machines import word_dfa

ALPHABET = frozenset({"a", "b"})


def dfa_of(text: str, alphabet=ALPHABET):
    return determinize_bitset(thompson_bitnfa(parse_regex(text), alphabet))


def is_empty(dfa) -> bool:
    everything = dfa_of("(a + b)*", dfa.alphabet)
    return bitset_intersection_counterexample(dfa, everything) is None


def equivalence_counterexample(left, right):
    """Shortest word accepted by exactly one operand, if any."""
    found = [
        word
        for word in (
            bitset_difference_counterexample(left, right),
            bitset_difference_counterexample(right, left),
        )
        if word is not None
    ]
    return min(found, key=lambda word: (len(word), word), default=None)


class TestDecisions:
    def test_is_empty(self):
        assert is_empty(dfa_of("{}"))
        assert not is_empty(dfa_of("a"))
        assert not is_empty(dfa_of("a*"))  # contains epsilon

    def test_included_basic(self):
        assert bitset_included(dfa_of("a"), dfa_of("a + b"))
        assert not bitset_included(dfa_of("a + b"), dfa_of("a"))

    def test_included_handles_different_alphabets(self):
        small = dfa_of("a", ())
        big = dfa_of("a + b")
        assert bitset_included(small, big)
        assert not bitset_included(big, small)  # "b" is foreign: rejected

    def test_equivalent(self):
        assert bitset_equivalent(dfa_of("(a + b)*"), dfa_of("(a* . b*)*"))
        assert not bitset_equivalent(dfa_of("a*"), dfa_of("a* . b"))

    def test_inclusion_counterexample_is_shortest(self):
        witness = bitset_difference_counterexample(dfa_of("a*"), dfa_of("a . a*"))
        assert witness == ()  # epsilon distinguishes

    def test_inclusion_counterexample_none_when_included(self):
        assert bitset_difference_counterexample(dfa_of("a"), dfa_of("a*")) is None

    def test_equivalence_counterexample(self):
        witness = equivalence_counterexample(dfa_of("a"), dfa_of("a + b"))
        assert witness == ("b",)


class TestAlphabetAdjustment:
    def test_with_alphabet_rejects_new_symbols(self):
        grown = dfa_of("a", {"a", "b"})
        assert grown.accepts(["a"])
        assert not grown.accepts(["b"])
        assert not grown.accepts(["a", "b"])

    def test_with_alphabet_requires_superset(self):
        # The alphabet an automaton is built over must hold every symbol
        # its moves read.
        builder = BitNFABuilder()
        source, target = builder.add_state(), builder.add_state()
        builder.add_transition(source, "b", target)
        with pytest.raises(KeyError):
            builder.build(1, 2, Alphabet({"a"}))

    def test_lift_alphabet_ignores_new_symbols(self):
        spec = dfa_of("a", {"a"})

        def lifted_accepts(word):
            return (
                bitset_difference_counterexample(
                    word_dfa(word, {"a", "x"}), spec, foreign="lift"
                )
                is None
            )

        assert lifted_accepts(["a"])
        assert lifted_accepts(["x", "a", "x"])
        assert not lifted_accepts(["x"])

    def test_project_then_lift_adjunction(self):
        # Projection of L onto K is included in M iff L is included in
        # lift(M).  Check one concrete instance of each direction.
        behavior = thompson_bitnfa(parse_regex("x . a . x . b"), {"a", "b", "x"})
        projected = determinize_bitset(project_bitnfa(behavior, {"a", "b"}))
        spec_ab = dfa_of("a . b")
        assert bitset_included(projected, spec_ab)
        assert (
            bitset_difference_counterexample(
                determinize_bitset(behavior), spec_ab, foreign="lift"
            )
            is None
        )

    def test_project_drops_foreign_symbols(self):
        nfa = thompson_bitnfa(parse_regex("a . x . b"), {"a", "b", "x"})
        projected = determinize_bitset(project_bitnfa(nfa, {"a", "b"}))
        assert projected.accepts(["a", "b"])
        assert not projected.accepts(["a", "x", "b"])


class TestNfaCombinators:
    """The kernel unions and concatenates by splicing Thompson fragments."""

    def test_union_nfa(self):
        joined = thompson_bitnfa(union_all([parse_regex("a"), parse_regex("b . b")]))
        assert joined.accepts(["a"])
        assert joined.accepts(["b", "b"])
        assert not joined.accepts(["b"])

    def test_union_nfa_empty_list(self):
        assert union_all([]) is EMPTY
        assert not thompson_bitnfa(union_all([])).accepts([])

    def test_concat_nfa(self):
        joined = thompson_bitnfa(parse_regex("(a + b) . b*"))
        assert joined.accepts(["a"])
        assert joined.accepts(["a", "b", "b"])
        assert joined.accepts(["b", "b"])
        assert not joined.accepts(["b", "a"])

    def test_nfa_included(self):
        assert bitset_included(dfa_of("a . b", ()), dfa_of("(a . b)*", ()))
        assert not bitset_included(dfa_of("(a . b)*", ()), dfa_of("a . b", ()))
