"""Subset construction on the kernel."""

import pytest

from repro.automata.kernel import determinize_bitset, minimize_bitset
from repro.core.limits import BudgetExceeded
from tests.automata.machines import make_nfa, mask, reference_accepts


def exponential_nfa(n):
    """The n-th-symbol-from-the-end-is-'a' NFA: its DFA has ~2**n states."""
    moves = [(0, "a", 0), (0, "b", 0), (0, "a", 1)]
    moves += [(i, symbol, i + 1) for i in range(1, n) for symbol in "ab"]
    return make_nfa(moves, initial=[0], accepting=[n])


AMBIGUOUS = [("s", "a", "p"), ("s", "a", "q"), ("p", "a", "p"), ("q", "b", "q")]


def ambiguous_nfa():
    """Accepts a(a|b)* via two a-successors from the start (states s=0,
    p=1, q=2)."""
    return make_nfa(AMBIGUOUS, initial=["s"], accepting=["p", "q"])


class TestDeterminize:
    def test_language_preserved(self):
        dfa = determinize_bitset(ambiguous_nfa())
        for word in ([], ["a"], ["a", "a"], ["a", "b"], ["b"], ["a", "a", "b"]):
            expected = reference_accepts(
                AMBIGUOUS, word, initial={"s"}, accepting={"p", "q"}
            )
            assert dfa.accepts(word) == expected, word

    def test_states_are_subsets(self):
        # Each DFA state stands for one NFA subset: {s}, then {p, q},
        # then {p} on a and {q} on b — four states in BFS order.
        dfa = determinize_bitset(ambiguous_nfa())
        assert dfa.n == 4
        assert dfa.initial == 0

    def test_initial_is_epsilon_closure(self):
        nfa = make_nfa([(1, "a", 2)], initial=[0], accepting=[2], epsilon=[(0, 1)])
        assert nfa.initial == mask([0, 1])
        dfa = determinize_bitset(nfa)
        assert dfa.accepts(["a"])

    def test_no_empty_subset_state(self):
        # Missing moves stay undefined (-1) instead of leading to an
        # explicit empty-subset state.
        dfa = determinize_bitset(ambiguous_nfa())
        b = dfa.alphabet.id_of("b")
        assert dfa.successor(dfa.initial, b) == -1

    def test_deterministic_single_successor(self):
        dfa = determinize_bitset(ambiguous_nfa())
        a = dfa.alphabet.id_of("a")
        successor = dfa.successor(dfa.initial, a)
        assert successor == 1  # the subset {p, q}, discovered first
        assert dfa.accepts(["a", "a"]) and dfa.accepts(["a", "b"])

    def test_epsilon_loops_terminate(self):
        nfa = make_nfa(
            [(1, "a", 2)], initial=[0], accepting=[2], epsilon=[(0, 1), (1, 0)]
        )
        dfa = determinize_bitset(nfa)
        assert dfa.accepts(["a"])
        assert not dfa.accepts([])

    def test_accepting_subsets_marked(self):
        # Only the start subset {s} rejects.
        dfa = determinize_bitset(ambiguous_nfa())
        assert dfa.accepting == mask(range(1, dfa.n))


class TestBudgets:
    def test_exponential_blowup_trips_state_budget(self):
        with pytest.raises(BudgetExceeded) as excinfo:
            determinize_bitset(exponential_nfa(12), max_states=64)
        assert excinfo.value.resource == "states"
        assert "subset construction" in str(excinfo.value)

    def test_budget_large_enough_is_harmless(self):
        dfa = determinize_bitset(exponential_nfa(4), max_states=1_000)
        assert dfa.accepts(["a", "b", "b", "b"])
        assert not dfa.accepts(["b", "b", "b", "b"])

    def test_zero_means_unlimited(self):
        dfa = determinize_bitset(exponential_nfa(8), max_states=0)
        assert dfa.n == 256  # the full 2**8 blowup, uncapped

    def test_expired_deadline_trips_wall_clock(self):
        import time

        with pytest.raises(BudgetExceeded) as excinfo:
            determinize_bitset(exponential_nfa(12), deadline=time.monotonic() - 1.0)
        assert excinfo.value.resource == "wall-clock"

    def test_minimize_entry_guard(self):
        dfa = determinize_bitset(exponential_nfa(10))
        assert dfa.n > 100
        with pytest.raises(BudgetExceeded):
            minimize_bitset(dfa, max_states=100)
        # Unlimited and roomy budgets both succeed.
        assert minimize_bitset(dfa, max_states=0).accepts(["a"] + ["b"] * 9)

    def test_budget_exceeded_survives_pickling(self):
        import pickle

        error = BudgetExceeded("too big", resource="states")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, BudgetExceeded)
        assert clone.resource == "states"
        assert "too big" in str(clone)
