"""Hypothesis property tests: the three LTLf semantics (direct
evaluation, progression, DFA translation) agree on random formulas and
random traces, and negation behaves classically."""

from hypothesis import given, settings, strategies as st

from repro.ltlf.ast import (
    Eventually,
    Formula,
    Globally,
    Next,
    Release,
    Until,
    WeakNext,
    WeakUntil,
    atom,
    conj,
    disj,
    neg,
)
from repro.ltlf.progression import satisfies_by_progression
from repro.ltlf.semantics import evaluate
from repro.ltlf.translate import formula_to_bitdfa

ALPHABET = ["a", "b"]


def formulas() -> st.SearchStrategy[Formula]:
    atoms = st.sampled_from([atom("a"), atom("b")])
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            children.map(neg),
            children.map(Next),
            children.map(WeakNext),
            children.map(Eventually),
            children.map(Globally),
            st.tuples(children, children).map(lambda p: conj(p)),
            st.tuples(children, children).map(lambda p: disj(p)),
            st.tuples(children, children).map(lambda p: Until(*p)),
            st.tuples(children, children).map(lambda p: WeakUntil(*p)),
            st.tuples(children, children).map(lambda p: Release(*p)),
        ),
        max_leaves=6,
    )


def traces():
    return st.lists(st.sampled_from(ALPHABET), max_size=6).map(tuple)


@given(formulas(), traces())
@settings(max_examples=250, deadline=None)
def test_progression_agrees_with_evaluation(formula, trace):
    assert satisfies_by_progression(formula, trace) == evaluate(formula, trace)


@given(formulas(), traces())
@settings(max_examples=150, deadline=None)
def test_dfa_agrees_with_evaluation(formula, trace):
    dfa = formula_to_bitdfa(formula, ALPHABET, max_states=20_000)
    assert dfa.accepts(trace) == evaluate(formula, trace)


@given(formulas(), traces())
@settings(max_examples=200, deadline=None)
def test_negation_is_classical(formula, trace):
    assert evaluate(neg(formula), trace) == (not evaluate(formula, trace))


@given(formulas(), formulas(), traces())
@settings(max_examples=150, deadline=None)
def test_weak_until_expansion(left, right, trace):
    """φ W ψ == (φ U ψ) | G φ — the paper's definition of weak until."""
    expanded = disj([Until(left, right), Globally(left)])
    assert evaluate(WeakUntil(left, right), trace) == evaluate(expanded, trace)


@given(formulas(), formulas(), traces())
@settings(max_examples=150, deadline=None)
def test_release_until_duality(left, right, trace):
    dual = neg(Until(neg(left), neg(right)))
    assert evaluate(Release(left, right), trace) == evaluate(dual, trace)


@given(formulas(), traces())
@settings(max_examples=150, deadline=None)
def test_globally_eventually_duality(formula, trace):
    assert evaluate(Globally(formula), trace) == (
        not evaluate(Eventually(neg(formula)), trace)
    )
