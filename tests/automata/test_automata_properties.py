"""Hypothesis property tests: the kernel pipeline agrees with the
derivative-based regex semantics on random terms and random words."""

from hypothesis import given, settings, strategies as st

from repro.automata.kernel import (
    bitdfa_to_regex,
    bitset_difference_counterexample,
    bitset_equivalent,
    determinize_bitset,
    minimize_bitset,
    thompson_bitnfa,
)
from repro.regex.ast import EMPTY, EPSILON, Regex, concat, star, symbol, union
from repro.regex.matching import matches
from tests.automata.machines import word_dfa

ALPHABET = ["a", "b"]


def regexes() -> st.SearchStrategy[Regex]:
    atoms = st.sampled_from([EMPTY, EPSILON, symbol("a"), symbol("b")])
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda pair: concat(*pair)),
            st.tuples(children, children).map(lambda pair: union(*pair)),
            children.map(star),
        ),
        max_leaves=10,
    )


def words():
    return st.lists(st.sampled_from(ALPHABET), max_size=6).map(tuple)


def minimal_of(regex):
    return minimize_bitset(determinize_bitset(thompson_bitnfa(regex, ALPHABET)))


@given(regexes(), words())
@settings(max_examples=200, deadline=None)
def test_thompson_agrees_with_derivatives(regex, word):
    nfa = thompson_bitnfa(regex, ALPHABET)
    assert nfa.accepts(word) == matches(regex, word)


@given(regexes(), words())
@settings(max_examples=150, deadline=None)
def test_determinize_preserves_language(regex, word):
    dfa = determinize_bitset(thompson_bitnfa(regex, ALPHABET))
    assert dfa.accepts(word) == matches(regex, word)


@given(regexes(), words())
@settings(max_examples=100, deadline=None)
def test_minimize_preserves_language(regex, word):
    assert minimal_of(regex).accepts(word) == matches(regex, word)


@given(regexes(), words())
@settings(max_examples=75, deadline=None)
def test_state_elimination_round_trip(regex, word):
    """Corollary 1 as a property: regex → DFA → regex keeps the language."""
    recovered = bitdfa_to_regex(determinize_bitset(thompson_bitnfa(regex, ALPHABET)))
    assert matches(recovered, word) == matches(regex, word)


@given(regexes())
@settings(max_examples=75, deadline=None)
def test_minimal_dfas_of_equal_languages_are_equal(regex):
    """Minimization is canonical: two pipelines for the same regex
    (directly, and via a round trip through state elimination) minimize
    to language-equivalent — and structurally identical — DFAs."""
    direct = minimal_of(regex)
    round_tripped = minimal_of(bitdfa_to_regex(direct))
    assert bitset_equivalent(direct, round_tripped)
    assert direct == round_tripped


@given(regexes(), words())
@settings(max_examples=100, deadline=None)
def test_complement_flips_membership(regex, word):
    """The fused difference reads its right operand's complement."""
    dfa = determinize_bitset(thompson_bitnfa(regex, ALPHABET))
    in_complement = bitset_difference_counterexample(word_dfa(word, ALPHABET), dfa)
    assert (in_complement is not None) != matches(regex, word)
