"""LTLf → DFA translation."""

import itertools

import pytest

from repro.ltlf.ast import (
    Eventually,
    Globally,
    Next,
    Until,
    WeakUntil,
    atom,
    conj,
    disj,
    neg,
)
from repro.ltlf.parser import parse_claim
from repro.ltlf.semantics import evaluate
from repro.ltlf.translate import (
    TranslationOverflowError,
    formula_to_bitdfa,
    negation_to_bitdfa,
)

A = atom("a")
B = atom("b")
ALPHABET = ["a", "b", "c"]


def all_traces(max_length: int):
    for length in range(max_length + 1):
        yield from itertools.product(ALPHABET, repeat=length)


class TestFormulaToDfa:
    @pytest.mark.parametrize(
        "formula",
        [
            A,
            neg(A),
            Next(B),
            Eventually(B),
            Globally(neg(B)),
            Until(A, B),
            WeakUntil(neg(A), B),
            conj([Eventually(A), Globally(disj([neg(A), Next(B)]))]),
            parse_claim("(!a) W b"),
            parse_claim("G (a -> X b)"),
            parse_claim("F a & F b"),
        ],
    )
    def test_dfa_agrees_with_semantics(self, formula):
        dfa = formula_to_bitdfa(formula, ALPHABET)
        for trace in all_traces(4):
            assert dfa.accepts(trace) == evaluate(formula, trace), trace

    def test_alphabet_must_cover_atoms(self):
        with pytest.raises(ValueError):
            formula_to_bitdfa(Until(A, B), alphabet=["a"])

    def test_default_alphabet_is_atoms(self):
        dfa = formula_to_bitdfa(Until(A, B))
        assert dfa.alphabet.symbols == ("a", "b")

    def test_foreign_events_break_atoms(self):
        dfa = formula_to_bitdfa(Globally(A), ALPHABET)
        assert dfa.accepts(["a", "a"])
        assert not dfa.accepts(["a", "c"])

    def test_dfa_is_total(self):
        dfa = formula_to_bitdfa(parse_claim("(!a) W b"), ALPHABET)
        assert -1 not in dfa.delta

    def test_state_count_is_small_for_paper_claim(self):
        dfa = formula_to_bitdfa(parse_claim("(!a) W b"), ALPHABET)
        assert dfa.n <= 4

    def test_overflow_guard(self):
        formula = conj(
            [Eventually(atom(name)) for name in ("a", "b", "c")]
        )
        with pytest.raises(TranslationOverflowError):
            formula_to_bitdfa(formula, ALPHABET, max_states=2)

    def test_overflow_is_a_state_budget_trip(self):
        from repro.core.limits import BudgetExceeded

        formula = conj([Eventually(atom(name)) for name in ("a", "b", "c")])
        with pytest.raises(BudgetExceeded) as trip:
            formula_to_bitdfa(formula, ALPHABET, max_states=2)
        assert trip.value.resource == "states"

    def test_expired_deadline_stops_progression(self):
        import time

        from repro.core.limits import BudgetExceeded

        with pytest.raises(BudgetExceeded) as trip:
            formula_to_bitdfa(
                parse_claim("(!a) W b"), ALPHABET, deadline=time.monotonic() - 1
            )
        assert trip.value.resource == "wall-clock"

    def test_classic_view_is_the_bfs_numbered_kernel_dfa(self):
        from tests.automata.machines import is_bfs_numbered

        assert is_bfs_numbered(formula_to_bitdfa(parse_claim("G (a -> X b)"), ALPHABET))


class TestNegationToDfa:
    def test_violation_language(self):
        formula = parse_claim("(!a) W b")
        violations = negation_to_bitdfa(formula, ALPHABET)
        for trace in all_traces(4):
            assert violations.accepts(trace) == (not evaluate(formula, trace))

    def test_shortest_violation_of_paper_claim(self):
        from repro.automata.kernel import BitDFA, bitset_difference_counterexample

        violations = negation_to_bitdfa(parse_claim("(!a.open) W b.open"), ["a.open", "b.open"])
        nothing = BitDFA(violations.alphabet, 1, [0, 0], 0, 0)
        assert bitset_difference_counterexample(violations, nothing) == ("a.open",)
