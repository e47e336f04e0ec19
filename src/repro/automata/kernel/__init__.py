"""The bitset automata kernel — the package's one automata library.

Symbols are interned to dense integers by an :class:`Alphabet`; NFA/DFA
state *sets* are plain Python ints used as bit vectors, so union is
``|``, membership is ``mask & (1 << s)`` and set identity is int
equality; minimization is Hopcroft partition refinement over int
blocks; and the inclusion check never materializes a product automaton
at all — it is an on-the-fly emptiness search that short-circuits on
the first counterexample state.

Every automaton is built straight into this kernel — behavior automata
by splicing Thompson fragments (:mod:`.thompson`), spec automata from
one arc enumeration, claim automata by LTLf progression — and every
automata question runs on it: the checker's verdicts, the exporters
(JSON, DOT, NuSMV), the test-suite walks, model metrics, mining and
the Corollary 1 round trip (:mod:`.to_regex`).  State ids are BFS
discovery order over sorted symbols, and counterexamples are
length-lex minimal.

No second implementation backs it.  Independent checks do:
``tests/automata/test_kernel_differential.py`` compares the kernel with
a set-based reference simulator on random NFAs, with regex matching on
regex-built automata, with the runtime monitor's
:class:`~repro.core.spec.SpecTable` on spec automata, and with goldens
recorded while a classic reference library still existed
(``tests/golden/automata.json``); see docs/kernel.md.
"""

from repro.automata.kernel.alphabet import Alphabet
from repro.automata.kernel.bitset import (
    BitDFA,
    BitNFA,
    BitNFABuilder,
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
from repro.automata.kernel.to_regex import bitdfa_to_regex
from repro.automata.kernel.context import KernelCheck

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
    "minimize_bitset",
    "project_bitnfa",
    "thompson_bitnfa",
]
