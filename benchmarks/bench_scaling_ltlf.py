"""Ablation — LTLf translation cost vs. formula shape.

The paper hands claims to NuSMV; this reproduction translates them to
DFAs by formula progression (the paper's named future-work direction).
The sweeps measure how the progression automaton grows with three
canonical formula families.
"""

import pytest

from repro.ltlf.translate import formula_to_bitdfa
from repro.workloads.formulas import (
    next_tower,
    ordering_claims,
    response_chain,
    until_chain,
)


def alphabet_for(events: int) -> list[str]:
    return [f"e{i}" for i in range(events)]


@pytest.mark.parametrize("depth", [1, 3, 5])
def test_response_chain_translation(benchmark, depth):
    formula = response_chain(depth)
    alphabet = alphabet_for(depth + 1)
    dfa = benchmark(formula_to_bitdfa, formula, alphabet)
    assert -1 not in dfa.delta  # progression DFAs are total
    print(f"\nresponse chain depth {depth}: {dfa.n} DFA states")


@pytest.mark.parametrize("depth", [2, 5, 8])
def test_until_chain_translation(benchmark, depth):
    formula = until_chain(depth)
    alphabet = alphabet_for(depth + 1)
    dfa = benchmark(formula_to_bitdfa, formula, alphabet)
    assert dfa.n
    print(f"\nuntil chain depth {depth}: {dfa.n} DFA states")


@pytest.mark.parametrize("events", [2, 4, 6])
def test_ordering_claims_translation(benchmark, events):
    """The paper-style claim family: every event waits for its
    predecessor (a conjunction of weak-untils)."""
    formula = ordering_claims(events)
    alphabet = alphabet_for(events)
    dfa = benchmark(formula_to_bitdfa, formula, alphabet)
    assert dfa.accepts([f"e{i}" for i in range(events)])  # in-order run
    assert not dfa.accepts([f"e{events - 1}"])  # last event first
    print(f"\nordering claims over {events} events: {dfa.n} DFA states")


@pytest.mark.parametrize("depth", [5, 20, 50])
def test_next_tower_translation(benchmark, depth):
    formula = next_tower(depth)
    dfa = benchmark(formula_to_bitdfa, formula, ["e", "f"])
    # The automaton is a chain: ~depth states plus sinks.
    assert dfa.n <= depth + 3
    print(f"\nnext tower depth {depth}: {dfa.n} DFA states")
