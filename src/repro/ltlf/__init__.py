"""LTLf claims: syntax, finite-trace semantics, progression, DFA translation.

The ``@claim`` annotation of Table 1 carries a formula in this logic;
:mod:`repro.core.claims` checks it against every trace of the annotated
class by intersecting the class behavior with the DFA of the negated
formula.
"""

from repro.ltlf.ast import (
    FALSE,
    TRUE,
    And,
    Atom,
    Bottom,
    Eventually,
    Formula,
    Globally,
    Next,
    Not,
    Or,
    Release,
    Top,
    Until,
    WeakNext,
    WeakUntil,
    atom,
    atoms,
    conj,
    disj,
    format_formula,
    implies,
    neg,
)
from repro.ltlf.parser import ClaimSyntaxError, parse_claim
from repro.ltlf.progression import (
    accepts_empty,
    progress,
    progress_trace,
    satisfies_by_progression,
)
from repro.ltlf.semantics import evaluate
from repro.ltlf.patterns import (
    absence,
    alternation,
    bounded_existence,
    existence,
    never_adjacent,
    precedence,
    response,
    succession,
    universality,
)
from repro.ltlf.to_regex import formula_to_regex, violation_regex
from repro.ltlf.translate import (
    TranslationOverflowError,
    formula_to_bitdfa,
    negation_to_bitdfa,
)

__all__ = [
    "And",
    "Atom",
    "Bottom",
    "ClaimSyntaxError",
    "Eventually",
    "FALSE",
    "Formula",
    "Globally",
    "Next",
    "Not",
    "Or",
    "Release",
    "TRUE",
    "Top",
    "TranslationOverflowError",
    "Until",
    "WeakNext",
    "WeakUntil",
    "absence",
    "accepts_empty",
    "alternation",
    "atom",
    "bounded_existence",
    "atoms",
    "conj",
    "disj",
    "evaluate",
    "existence",
    "format_formula",
    "formula_to_bitdfa",
    "formula_to_regex",
    "implies",
    "neg",
    "never_adjacent",
    "negation_to_bitdfa",
    "parse_claim",
    "precedence",
    "progress",
    "progress_trace",
    "response",
    "satisfies_by_progression",
    "succession",
    "universality",
    "violation_regex",
]
