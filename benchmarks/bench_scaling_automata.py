"""Ablation — the automata pipeline (regex → NFA → DFA → minimal DFA).

Sweeps the inferred-regex size and times each stage plus the language
round trip of Corollary 1 (DFA → regex → language equality).
"""

import random

import pytest

from repro.automata.kernel import (
    bitdfa_to_regex,
    determinize_bitset,
    minimize_bitset,
    thompson_bitnfa,
)
from repro.lang.generator import random_program_of_size
from repro.lang.inference import infer
from repro.regex.ast import size as regex_size

SIZES = [20, 100, 400]


def _regex_of_size(target: int):
    rng = random.Random(target)
    program = random_program_of_size(rng, target)
    return infer(program)


@pytest.mark.parametrize("target", SIZES)
def test_thompson_scaling(benchmark, target):
    regex = _regex_of_size(target)
    nfa = benchmark(thompson_bitnfa, regex)
    assert nfa.n >= 2
    print(f"\nregex size {regex_size(regex)} -> NFA states {nfa.n}")


@pytest.mark.parametrize("target", SIZES)
def test_determinize_scaling(benchmark, target):
    nfa = thompson_bitnfa(_regex_of_size(target))
    dfa = benchmark(determinize_bitset, nfa)
    assert dfa.n
    print(f"\nNFA {nfa.n} states -> DFA {dfa.n} states")


@pytest.mark.parametrize("target", SIZES)
def test_minimize_scaling(benchmark, target):
    dfa = determinize_bitset(thompson_bitnfa(_regex_of_size(target)))
    minimal = benchmark(minimize_bitset, dfa)
    assert minimal.n <= dfa.n + 1  # +1 for completion
    print(f"\nDFA {dfa.n} -> minimal {minimal.n} states")


@pytest.mark.parametrize("target", [20, 100])
def test_corollary1_round_trip_scaling(benchmark, target):
    regex = _regex_of_size(target)

    def round_trip():
        dfa = minimize_bitset(determinize_bitset(thompson_bitnfa(regex)))
        return bitdfa_to_regex(dfa)

    recovered = benchmark(round_trip)
    from repro.regex.equivalence import equivalent

    assert equivalent(recovered, regex)
