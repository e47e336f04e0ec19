"""Finite-automata library backing the checker.

Pipeline pieces:

* :class:`NFA` / :class:`NFABuilder` and :class:`DFA` — representations,
* :func:`determinize` — subset construction,
* :func:`minimize` — Hopcroft minimization (canonical DFAs),
* :func:`intersection` / :func:`difference` — products,
* :func:`included` / :func:`equivalent` / counterexample extraction,
* :func:`lift_alphabet` / :func:`project_nfa` — the projection pair used
  by the subsystem-usage check,
* :func:`thompson` / :func:`nfa_to_regex` — regex ↔ automaton round trip
  (Corollary 1),
* :mod:`repro.automata.kernel` — the integer-interned bitset kernel (the
  checker's only automata path; this package stays the reference
  oracle, see docs/kernel.md).
"""

from repro.automata import kernel
from repro.automata.determinize import determinize
from repro.automata.dfa import DEAD_STATE, DFA
from repro.automata.minimize import minimize
from repro.automata.nfa import (
    NFA,
    NFABuilder,
    empty_language_nfa,
    epsilon_language_nfa,
)
from repro.automata.operations import (
    concat_nfa,
    equivalence_counterexample,
    equivalent,
    included,
    inclusion_counterexample,
    is_empty,
    lift_alphabet,
    nfa_included,
    project_nfa,
    union_nfa,
    with_alphabet,
)
from repro.automata.product import difference, intersection, symmetric_difference
from repro.automata.shortest import (
    iter_accepted_words,
    shortest_accepted_word,
    shortest_accepted_word_nfa,
)
from repro.automata.thompson import regex_to_dfa, thompson
from repro.automata.to_regex import nfa_to_regex

__all__ = [
    "DEAD_STATE",
    "DFA",
    "NFA",
    "NFABuilder",
    "concat_nfa",
    "determinize",
    "difference",
    "empty_language_nfa",
    "epsilon_language_nfa",
    "equivalence_counterexample",
    "equivalent",
    "included",
    "inclusion_counterexample",
    "intersection",
    "is_empty",
    "iter_accepted_words",
    "kernel",
    "lift_alphabet",
    "minimize",
    "nfa_included",
    "nfa_to_regex",
    "project_nfa",
    "regex_to_dfa",
    "shortest_accepted_word",
    "shortest_accepted_word_nfa",
    "symmetric_difference",
    "thompson",
    "union_nfa",
    "with_alphabet",
]
