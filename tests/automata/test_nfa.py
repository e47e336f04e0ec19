"""Kernel NFAs: closures, stepping, acceptance, the builder."""

import pytest

from repro.automata.kernel import (
    Alphabet,
    BitNFABuilder,
    bitdfa_to_regex,
    determinize_bitset,
    minimize_bitset,
)
from tests.automata.machines import make_nfa, mask


def simple_nfa():
    """Accepts a(ba)* — states 0 -a-> 1 -b-> 0, accepting {1}."""
    return make_nfa([(0, "a", 1), (1, "b", 0)], initial=[0], accepting=[1])


def epsilon_chain_nfa():
    """0 -ε-> 1 -ε-> 2 -a-> 3, accepting {3}."""
    return make_nfa(
        [(2, "a", 3)], initial=[0], accepting=[3], epsilon=[(0, 1), (1, 2)]
    )


def constant_nfa(accepting: bool):
    """One state over {a}, accepting the empty word or nothing."""
    builder = BitNFABuilder()
    builder.add_state()
    return builder.build(1, int(accepting), Alphabet({"a"}))


class TestAcceptance:
    def test_accepts_basic(self):
        nfa = simple_nfa()
        assert nfa.accepts(["a"])
        assert nfa.accepts(["a", "b", "a"])
        assert not nfa.accepts([])
        assert not nfa.accepts(["b"])
        assert not nfa.accepts(["a", "b"])

    def test_epsilon_closure_transitive(self):
        assert epsilon_chain_nfa().closure[0] == mask([0, 1, 2])

    def test_accepts_through_epsilon(self):
        nfa = epsilon_chain_nfa()
        assert nfa.accepts(["a"])
        assert not nfa.accepts([])

    def test_step_applies_closure_after_move(self):
        nfa = make_nfa([(0, "a", 1)], initial=[0], accepting=[2], epsilon=[(1, 2)])
        assert nfa.step(mask([0]), nfa.alphabet.id_of("a")) == mask([1, 2])

    def test_unknown_symbol_rejects(self):
        assert not simple_nfa().accepts(["z"])


class TestConstants:
    def test_empty_language(self):
        nfa = constant_nfa(accepting=False)
        assert not nfa.accepts([])
        assert not nfa.accepts(["a"])

    def test_epsilon_language(self):
        nfa = constant_nfa(accepting=True)
        assert nfa.accepts([])
        assert not nfa.accepts(["a"])


class TestStructure:
    def test_validates_initial_states(self):
        builder = BitNFABuilder()
        builder.add_state()
        with pytest.raises(ValueError):
            builder.build(1 << 7, 0, Alphabet())

    def test_validates_accepting_states(self):
        builder = BitNFABuilder()
        builder.add_state()
        with pytest.raises(ValueError):
            builder.build(1, 1 << 9, Alphabet())

    def test_builder_rejects_epsilon_via_add_transition(self):
        # Epsilon moves go through add_epsilon; a move on ``None`` names a
        # symbol no alphabet holds, so building refuses it.
        builder = BitNFABuilder()
        source, target = builder.add_state(), builder.add_state()
        builder.add_transition(source, None, target)
        with pytest.raises(KeyError):
            builder.build(1, 2, Alphabet({"a"}))

    def test_reachable_states(self):
        # The subset construction only discovers reachable subsets: the
        # island 2 -a-> 3 never shows up.
        nfa = make_nfa([(0, "a", 1), (2, "a", 3)], initial=[0], accepting=[3])
        dfa = determinize_bitset(nfa)
        assert dfa.n == 2
        assert dfa.accepting == 0

    def test_trim_drops_unreachable(self):
        nfa = make_nfa([(0, "a", 1), (5, "a", 6)], initial=[0], accepting=[1])
        minimal = minimize_bitset(determinize_bitset(nfa))
        assert minimal.n == 3  # start, accept, sink
        assert minimal.accepts(["a"])

    def test_renumbered_preserves_language(self):
        nfa = simple_nfa()
        renamed = minimize_bitset(determinize_bitset(nfa))
        for word in ([], ["a"], ["a", "b"], ["a", "b", "a"]):
            assert nfa.accepts(word) == renamed.accepts(word)

    def test_renumbered_states_are_contiguous_ints(self):
        dfa = determinize_bitset(epsilon_chain_nfa())
        assert set(dfa.delta) <= set(range(dfa.n)) | {-1}

    def test_iter_transitions_lists_epsilons_with_none(self):
        nfa = epsilon_chain_nfa()
        assert nfa.eps[0] == mask([1]) and nfa.eps[1] == mask([2])
        assert bitdfa_to_regex(determinize_bitset(nfa)).name == "a"
