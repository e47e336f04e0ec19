"""The classic reference pipeline — the bitset kernel's differential oracle.

The checker builds every automaton straight into the bitset kernel and
answers every automata question there
(:class:`~repro.automata.kernel.KernelCheck`).  :class:`ClassicCheck`
answers the same questions on the classic object automata
(:mod:`repro.automata.determinize`, ``operations``, ``product``,
``shortest``), which are the kernel's executable specification, over a
behavior automaton it builds itself (:func:`classic_behavior_nfa`);
:func:`check_source_classic` runs the whole pipeline with it.  The two
share only the LTLf progression loop, whose classic view is
:func:`repro.ltlf.translate.negation_to_dfa`.

Nothing on the production path imports this module.  The differential
tests compare its reports with :func:`repro.core.checker.check_source`
byte for byte, and ``benchmarks/ci_smoke.py`` races the two.
"""

from __future__ import annotations

from typing import Mapping

from repro.automata.determinize import determinize
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA, NFABuilder
from repro.automata.operations import (
    inclusion_counterexample,
    lift_alphabet,
    project_nfa,
    with_alphabet,
)
from repro.automata.product import intersection
from repro.automata.shortest import shortest_accepted_word
from repro.automata.thompson import thompson
from repro.core.behavior import operation_exit_regexes
from repro.core.checker import Checker, check_parsed_class, module_diagnostics
from repro.core.diagnostics import CheckResult
from repro.core.limits import charge_states, check_deadline
from repro.core.spec import START_STATE, ClassSpec, exit_state
from repro.frontend.model_ast import OperationDef, ParsedClass
from repro.frontend.parse import parse_module
from repro.ltlf.ast import Formula
from repro.ltlf.translate import negation_to_dfa
from repro.regex.ast import EPSILON, Regex


def classic_behavior_nfa(
    parsed: ParsedClass,
    exit_regexes: Mapping[str, Mapping[int, Regex]] | None = None,
    *,
    max_states: int | None = None,
    deadline: float | None = None,
    tracer=None,
) -> NFA:
    """:func:`repro.core.behavior.behavior_nfa` on the classic automata.

    The states carry their names — ``start``, ``("entered", m)``,
    ``("body", m, i, q)`` for state ``q`` of the Thompson automaton of
    exit ``i``'s regex, and ``("exit", m, i)`` — and the budget is
    charged with the state count after each operation.
    """
    spec = ClassSpec.of(parsed)
    builder = NFABuilder()
    builder.mark_initial(START_STATE)
    builder.mark_accepting(START_STATE)

    entered = {op.name: ("entered", op.name) for op in parsed.operations}

    cap = None if max_states is None or max_states <= 0 else max_states
    for operation in parsed.operations:
        check_deadline(deadline, "behavior construction")
        builder.add_state(entered[operation.name])
        supplied = None if exit_regexes is None else exit_regexes.get(operation.name)
        if supplied is None:
            per_exit = operation_exit_regexes(operation)
        else:
            per_exit = {
                point.exit_id: supplied.get(point.exit_id, EPSILON)
                for point in operation.returns
            }
        for point in operation.returns:
            fragment = thompson(per_exit[point.exit_id])
            rename = {
                state: ("body", operation.name, point.exit_id, state)
                for state in fragment.states
            }
            builder.add_states(rename.values())
            for source, symbol, target in fragment.iter_transitions():
                if symbol is None:
                    builder.add_epsilon(rename[source], rename[target])
                else:
                    builder.add_transition(rename[source], symbol, rename[target])
            for state in fragment.initial_states:
                builder.add_epsilon(entered[operation.name], rename[state])
            target_exit = exit_state(operation.name, point.exit_id)
            builder.add_state(target_exit)
            for state in fragment.accepting_states:
                builder.add_epsilon(rename[state], target_exit)
        charge_states(builder.state_count, cap, "behavior construction")

    def connect(source, operation: OperationDef) -> None:
        builder.add_transition(source, operation.name, entered[operation.name])

    for operation in spec.initial_operations():
        connect(START_STATE, operation)
    for operation in parsed.operations:
        for point in operation.returns:
            source = exit_state(operation.name, point.exit_id)
            for next_name in point.next_methods:
                next_operation = spec.operation(next_name)
                if next_operation is not None:
                    connect(source, next_operation)
        if operation.kind.is_final:
            for point in operation.returns:
                builder.mark_accepting(exit_state(operation.name, point.exit_id))

    for operation in parsed.operations:
        builder.alphabet.add(operation.name)
        builder.alphabet.update(operation.calls)
    if tracer is not None and tracer.enabled:
        tracer.annotate(
            nfa_states=builder.state_count,
            operations=len(parsed.operations),
        )
    return builder.build()


class ClassicCheck:
    """:class:`~repro.automata.kernel.KernelCheck`'s interface on the
    classic automata.

    The behavior is determinized once per check, under the check's
    budget; every other machine is rebuilt per question.
    """

    #: The checker builds this facade's behavior automaton with it.
    behavior_nfa = staticmethod(classic_behavior_nfa)

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
        violation = negation_to_dfa(
            formula, alphabet=observed, deadline=self.deadline
        )
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
