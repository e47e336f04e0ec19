"""The classic reference pipeline — the bitset kernel's differential oracle.

The checker answers every automata question on the bitset kernel
(:class:`~repro.automata.kernel.KernelCheck`).  :class:`ClassicCheck`
answers the same questions on the classic object automata
(:mod:`repro.automata.determinize`, ``operations``, ``product``,
``shortest``), which are the kernel's executable specification, and
:func:`check_source_classic` runs the whole pipeline with it.

Nothing on the production path imports this module.  The differential
tests compare its reports with :func:`repro.core.checker.check_source`
byte for byte, and ``benchmarks/ci_smoke.py`` races the two.
"""

from __future__ import annotations

from repro.automata.determinize import determinize
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.automata.operations import (
    inclusion_counterexample,
    lift_alphabet,
    project_nfa,
    with_alphabet,
)
from repro.automata.product import intersection
from repro.automata.shortest import shortest_accepted_word
from repro.core.checker import Checker, check_parsed_class, module_diagnostics
from repro.core.diagnostics import CheckResult
from repro.core.spec import ClassSpec
from repro.frontend.parse import parse_module
from repro.ltlf.ast import Formula
from repro.ltlf.translate import negation_to_dfa


class ClassicCheck:
    """:class:`~repro.automata.kernel.KernelCheck`'s interface on the
    classic automata.

    The behavior is determinized once per check, under the check's
    budget; every other machine is rebuilt per question.
    """

    def __init__(
        self,
        behavior: NFA,
        *,
        max_states: int | None = None,
        deadline: float | None = None,
        tracer=None,
    ):
        self.behavior = behavior
        self.max_states = max_states
        self.deadline = deadline
        self.tracer = tracer
        self._behavior_dfa: DFA | None = None

    def behavior_dfa(self) -> DFA:
        if self._behavior_dfa is None:
            self._behavior_dfa = determinize(
                self.behavior,
                max_states=self.max_states,
                deadline=self.deadline,
                tracer=self.tracer,
            )
        return self._behavior_dfa

    def usage_counterexample(
        self, spec: ClassSpec, prefix: str
    ) -> tuple[str, ...] | None:
        behavior = self.behavior_dfa()
        spec_dfa = spec.dfa(prefix)
        joint = behavior.alphabet | spec_dfa.alphabet
        return inclusion_counterexample(
            with_alphabet(behavior, joint), lift_alphabet(spec_dfa, joint)
        )

    def claim_counterexample(
        self, formula: Formula, observed: frozenset[str]
    ) -> tuple[str, ...] | None:
        projected = determinize(project_nfa(self.behavior, observed))
        violation = negation_to_dfa(formula, alphabet=observed)
        joint = projected.alphabet | violation.alphabet
        return shortest_accepted_word(
            intersection(
                with_alphabet(projected, joint), with_alphabet(violation, joint)
            )
        )

    def holds_on(self, formula: Formula, observed: frozenset[str]) -> bool:
        return self.claim_counterexample(formula, observed) is None


def check_source_classic(
    source: str, source_name: str = "<string>"
) -> CheckResult:
    """:func:`repro.core.checker.check_source` on the classic automata."""
    module, violations = parse_module(source, source_name)
    specs = Checker(module, violations).specs
    result = module_diagnostics(module, violations)
    for parsed in module.classes:
        class_result, _dfa = check_parsed_class(
            parsed, specs, automata=ClassicCheck
        )
        result.extend(class_result)
    return result
