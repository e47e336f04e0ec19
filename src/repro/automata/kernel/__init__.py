"""The bitset automata kernel — the raw-speed core of the checker.

The classic automata modules (:mod:`repro.automata.nfa`,
:mod:`repro.automata.dfa`, ...) carry arbitrary hashable state names all
the way into diagnostics, which is exactly right for readability and
exactly wrong for speed: every subset-construction step hashes
frozensets of tuples and every product step hashes pairs of them.

This package is the other half of the trade.  Symbols are interned to
dense integers by an :class:`Alphabet`; NFA/DFA state *sets* are plain
Python ints used as bit vectors, so union is ``|``, membership is
``mask & (1 << s)`` and set identity is int equality; minimization is
Hopcroft partition refinement over int blocks; and the inclusion check
never materializes a product automaton at all — it is an on-the-fly
emptiness search that short-circuits on the first counterexample state.

The checker builds its automata straight into this kernel — behavior
automata by splicing Thompson fragments (:mod:`.thompson`), spec
automata from one arc enumeration, claim automata by LTLf progression —
and runs every automata question on it.  The classic modules remain the
**differential oracle**: the kernel must agree with
them on language questions (equivalence, inclusion, minimized state
counts) and produce the *same* length-lex-minimal counterexample words,
so reports are byte-identical to the classic reference pipeline
(:mod:`repro.core.oracle`).  ``tests/automata/test_kernel_differential.py``
pins that contract on random automata and on every paper listing; see
docs/kernel.md.
"""

from repro.automata.kernel.alphabet import Alphabet
from repro.automata.kernel.bitset import (
    BitDFA,
    BitNFA,
    BitNFABuilder,
    bitdfa_to_dfa,
    dfa_to_bitdfa,
    nfa_to_bitnfa,
    project_bitnfa,
)
from repro.automata.kernel.determinize import determinize_bitset
from repro.automata.kernel.inclusion import (
    bitset_difference_counterexample,
    bitset_equivalent,
    bitset_included,
    bitset_intersection_counterexample,
)
from repro.automata.kernel.minimize import minimize_bitset
from repro.automata.kernel.thompson import thompson_bitnfa
from repro.automata.kernel.context import KernelCheck

__all__ = [
    "Alphabet",
    "BitDFA",
    "BitNFA",
    "BitNFABuilder",
    "KernelCheck",
    "bitdfa_to_dfa",
    "bitset_difference_counterexample",
    "bitset_equivalent",
    "bitset_included",
    "bitset_intersection_counterexample",
    "determinize_bitset",
    "dfa_to_bitdfa",
    "minimize_bitset",
    "nfa_to_bitnfa",
    "project_bitnfa",
    "thompson_bitnfa",
]
