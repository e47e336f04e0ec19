"""Kernel DFAs: runs, the dead sink, complement readings, renumbering."""

import pytest

from repro.automata.kernel import (
    Alphabet,
    BitDFA,
    bitdfa_to_regex,
    bitset_difference_counterexample,
    bitset_intersection_counterexample,
    minimize_bitset,
    thompson_bitnfa,
)
from tests.automata.machines import make_dfa, word_dfa

WORDS = ([], ["a"], ["b"], ["a", "a"], ["a", "b"], ["b", "a"], ["b", "b"], ["a", "b", "a"])


def even_as_dfa() -> BitDFA:
    """Accepts words with an even number of a's (total over {a, b})."""
    return make_dfa(
        [(0, "a", 1), (1, "a", 0), (0, "b", 0), (1, "b", 1)],
        n=2,
        accepting=[0],
        alphabet="ab",
    )


def partial_dfa() -> BitDFA:
    """Accepts exactly "ab" (partial: missing moves reject)."""
    return make_dfa([(0, "a", 1), (1, "b", 2)], n=3, accepting=[2], alphabet="ab")


def run(dfa: BitDFA, word) -> list[int]:
    """The states visited on ``word`` (``-1`` once stuck)."""
    states = [dfa.initial]
    for symbol in word:
        state = states[-1]
        states.append(-1 if state < 0 else dfa.successor(state, dfa.alphabet.id_of(symbol)))
    return states


class TestAcceptance:
    def test_total_dfa(self):
        dfa = even_as_dfa()
        assert dfa.accepts([])
        assert dfa.accepts(["a", "a"])
        assert dfa.accepts(["b", "a", "b", "a"])
        assert not dfa.accepts(["a"])

    def test_partial_dfa_missing_move_rejects(self):
        dfa = partial_dfa()
        assert dfa.accepts(["a", "b"])
        assert not dfa.accepts(["b"])
        assert not dfa.accepts(["a", "b", "a"])

    def test_run_records_states(self):
        assert run(partial_dfa(), ["a", "b"]) == [0, 1, 2]

    def test_run_goes_none_when_stuck(self):
        assert run(partial_dfa(), ["b", "a"]) == [0, -1, -1]


class TestCompletion:
    """``minimize_bitset`` returns the minimal *total* DFA: it completes
    the input with a dead sink first."""

    def test_is_total(self):
        assert -1 not in even_as_dfa().delta
        assert -1 in partial_dfa().delta
        assert -1 not in minimize_bitset(partial_dfa()).delta

    def test_completed_adds_dead_state(self):
        total = minimize_bitset(partial_dfa())
        assert total.n == 4  # the chain plus the sink
        sink = total.successor(total.initial, total.alphabet.id_of("b"))
        assert not total.accepting >> sink & 1
        assert all(total.successor(sink, a) == sink for a in range(len(total.alphabet)))

    def test_completed_preserves_language(self):
        dfa = partial_dfa()
        total = minimize_bitset(dfa)
        for word in WORDS:
            assert dfa.accepts(word) == total.accepts(word)

    def test_completed_total_is_identity(self):
        dfa = even_as_dfa()
        assert minimize_bitset(dfa) == dfa

    def test_completed_rejects_name_clash(self):
        # The sink takes a fresh id, so it cannot clash with a state of
        # the input; an input sink of its own merges with it.
        dfa = make_dfa(
            [(0, "a", 1), (1, "a", 2), (2, "a", 2), (2, "b", 2)],
            n=3,
            accepting=[1],
            alphabet="ab",
        )
        total = minimize_bitset(dfa)
        assert total.n == 3  # start, accept, one sink
        assert total.accepts(["a"]) and not total.accepts(["a", "a"])


class TestComplement:
    """The fused search reads the right operand's missing moves as a dead
    sink, so ``L(word) \\ L(dfa)`` is non-empty exactly for the words the
    DFA rejects — the complement, never materialized."""

    def test_complement_flips_membership(self):
        dfa = partial_dfa()
        for word in WORDS + (["b", "b"],):
            in_complement = bitset_difference_counterexample(word_dfa(word, "ab"), dfa)
            assert (in_complement is not None) != dfa.accepts(word), word

    def test_double_complement_is_same_language(self):
        dfa = even_as_dfa()
        for word in WORDS:
            in_language = bitset_intersection_counterexample(word_dfa(word, "ab"), dfa)
            in_complement = bitset_difference_counterexample(word_dfa(word, "ab"), dfa)
            assert (in_language is not None) == dfa.accepts(word) != (in_complement is not None)


class TestTransformations:
    def test_trim_drops_unreachable(self):
        dfa = make_dfa(
            [(0, "a", 1), (2, "a", 2)], n=3, accepting=[1, 2], alphabet="a"
        )
        minimal = minimize_bitset(dfa)
        assert minimal.n == 3  # start, accept, sink: state 2 is gone
        assert not minimal.accepts(["a", "a"])

    def test_renumbered_preserves_language(self):
        # Initial state 1: minimization renumbers it to 0 in BFS order.
        dfa = make_dfa(
            [(1, "a", 0), (0, "a", 1), (1, "b", 1), (0, "b", 0)],
            n=2,
            accepting=[1],
            alphabet="ab",
            initial=1,
        )
        renamed = minimize_bitset(dfa)
        assert renamed.initial == 0
        for word in WORDS:
            assert dfa.accepts(word) == renamed.accepts(word)

    def test_to_nfa_same_language(self):
        dfa = partial_dfa()
        nfa = thompson_bitnfa(bitdfa_to_regex(dfa), "ab")
        for word in WORDS:
            assert dfa.accepts(word) == nfa.accepts(word)

    def test_validates_initial_state(self):
        with pytest.raises(ValueError):
            BitDFA(Alphabet(), 1, [], 1, 0)
