"""LTLf → regular expression, closing the regular-language circle.

The paper's conclusion (§5) proposes working "directly in
regular-languages" instead of re-encoding into ω-regular NuSMV models.
This module completes that programme: a claim formula translates to a
regular expression over event labels by composing the progression DFA
(:mod:`repro.ltlf.translate`) with state elimination
(:mod:`repro.automata.kernel.to_regex`), optionally simplified.

With both programs (via ``infer``) and claims as regexes, claim checking
becomes pure regular-language inclusion — exercised by the tests and by
``benchmarks/bench_scaling_ltlf.py``.
"""

from __future__ import annotations

from typing import Iterable

from repro.automata.kernel import bitdfa_to_regex, minimize_bitset
from repro.ltlf.ast import Formula, atoms as formula_atoms, neg
from repro.ltlf.translate import formula_to_bitdfa
from repro.regex.ast import Regex
from repro.regex.simplify import simplify


def formula_to_regex(
    formula: Formula,
    alphabet: Iterable[str] | None = None,
    simplified: bool = True,
) -> Regex:
    """A regular expression for the models of ``formula`` over ``alphabet``.

    The result accepts exactly the finite traces satisfying the formula
    under :mod:`repro.ltlf.semantics`.  ``alphabet`` defaults to the
    formula's atoms; enlarge it when the property must be judged over a
    wider event vocabulary (unmentioned events falsify atoms but are
    otherwise unconstrained).
    """
    if alphabet is None:
        alphabet = sorted(formula_atoms(formula))
    regex = bitdfa_to_regex(minimize_bitset(formula_to_bitdfa(formula, alphabet)))
    return simplify(regex) if simplified else regex


def violation_regex(
    formula: Formula,
    alphabet: Iterable[str] | None = None,
    simplified: bool = True,
) -> Regex:
    """A regex for the *violating* traces (the language of ``!formula``)."""
    if alphabet is None:
        alphabet = sorted(formula_atoms(formula))
    return formula_to_regex(neg(formula), alphabet, simplified)
