"""Finite automata backing the checker: the bitset kernel.

Every automaton of the package lives in :mod:`repro.automata.kernel`:

* :class:`BitNFA` / :class:`BitNFABuilder` and :class:`BitDFA` —
  int-state representations over an interned :class:`Alphabet`,
* :func:`thompson_bitnfa` — regex → NFA (one direction of Corollary 1),
* :func:`determinize_bitset` — budgeted subset construction,
* :func:`minimize_bitset` — Hopcroft minimization (canonical total DFAs),
* :func:`bitset_difference_counterexample` /
  :func:`bitset_intersection_counterexample` / :func:`bitset_included` /
  :func:`bitset_equivalent` — fused product decisions with
  length-lex-minimal witnesses,
* :func:`project_bitnfa` — the projection used by claim checking,
* :func:`bitdfa_to_regex` — state elimination (the other direction of
  Corollary 1),
* :class:`KernelCheck` — one class check's memoized automata.

This package re-exports those names.
"""

from repro.automata import kernel
from repro.automata.kernel import (
    Alphabet,
    BitDFA,
    BitNFA,
    BitNFABuilder,
    KernelCheck,
    bitdfa_to_regex,
    bitset_difference_counterexample,
    bitset_equivalent,
    bitset_included,
    bitset_intersection_counterexample,
    determinize_bitset,
    minimize_bitset,
    project_bitnfa,
    thompson_bitnfa,
)

__all__ = [
    "Alphabet",
    "BitDFA",
    "BitNFA",
    "BitNFABuilder",
    "KernelCheck",
    "bitdfa_to_regex",
    "bitset_difference_counterexample",
    "bitset_equivalent",
    "bitset_included",
    "bitset_intersection_counterexample",
    "determinize_bitset",
    "kernel",
    "minimize_bitset",
    "project_bitnfa",
    "thompson_bitnfa",
]
