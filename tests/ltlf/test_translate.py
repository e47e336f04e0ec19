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
    formula_to_dfa,
    negation_to_dfa,
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
        dfa = formula_to_dfa(formula, ALPHABET)
        for trace in all_traces(4):
            assert dfa.accepts(trace) == evaluate(formula, trace), trace

    def test_alphabet_must_cover_atoms(self):
        with pytest.raises(ValueError):
            formula_to_dfa(Until(A, B), alphabet=["a"])

    def test_default_alphabet_is_atoms(self):
        dfa = formula_to_dfa(Until(A, B))
        assert dfa.alphabet == {"a", "b"}

    def test_foreign_events_break_atoms(self):
        dfa = formula_to_dfa(Globally(A), ALPHABET)
        assert dfa.accepts(["a", "a"])
        assert not dfa.accepts(["a", "c"])

    def test_dfa_is_total(self):
        dfa = formula_to_dfa(parse_claim("(!a) W b"), ALPHABET)
        assert dfa.is_total()

    def test_state_count_is_small_for_paper_claim(self):
        dfa = formula_to_dfa(parse_claim("(!a) W b"), ALPHABET)
        assert len(dfa.states) <= 4

    def test_overflow_guard(self):
        formula = conj(
            [Eventually(atom(name)) for name in ("a", "b", "c")]
        )
        with pytest.raises(TranslationOverflowError):
            formula_to_dfa(formula, ALPHABET, max_states=2)

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
        formula = parse_claim("G (a -> X b)")
        bit = formula_to_bitdfa(formula, ALPHABET)
        dfa = formula_to_dfa(formula, ALPHABET)
        assert dfa.initial_state == bit.initial == 0
        assert len(dfa.states) == bit.n
        for trace in all_traces(3):
            assert dfa.accepts(trace) == bit.accepts(trace)


class TestNegationToDfa:
    def test_violation_language(self):
        formula = parse_claim("(!a) W b")
        violations = negation_to_dfa(formula, ALPHABET)
        for trace in all_traces(4):
            assert violations.accepts(trace) == (not evaluate(formula, trace))

    def test_shortest_violation_of_paper_claim(self):
        from repro.automata.shortest import shortest_accepted_word

        violations = negation_to_dfa(parse_claim("(!a.open) W b.open"), ["a.open", "b.open"])
        assert shortest_accepted_word(violations) == ("a.open",)
