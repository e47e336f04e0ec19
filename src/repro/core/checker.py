"""The verification pipeline: parse → lint → extract → check.

This is the public entry point a user of the library calls::

    from repro import check_source
    result = check_source(open("controller.py").read())
    print(result.format())

For each ``@sys`` class, in source order:

1. subset violations collected by the frontend become diagnostics;
2. the specification lints of :mod:`repro.core.lint` run;
3. for composite classes, the invocation and match-exhaustiveness
   analyses run (§3, step 3);
4. the behavior automaton is built (skipped when earlier *errors* make
   it meaningless) and the subsystem-usage inclusion check runs (§2.2);
5. every ``@claim`` is verified against the behavior (§2.2), and claims
   that hold are additionally screened for vacuity (warnings).

Hierarchies work naturally: specs of all classes in the module are in
scope, so a composite may use another composite as a subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.automata.kernel import BitDFA, KernelCheck
from repro.core.behavior import behavior_nfa
from repro.core.claims import check_claims
from repro.core.diagnostics import CheckResult, from_subset_violation
from repro.core.exhaustiveness import check_invocations, check_match_exhaustiveness
from repro.core.limits import Limits
from repro.core.lint import lint_spec
from repro.core.spec import ClassSpec
from repro.core.usage import check_subsystem_usage
from repro.core.vacuity import check_claim_vacuity
from repro.frontend.model_ast import ParsedClass, ParsedModule, SubsetViolation
from repro.frontend.parse import parse_file, parse_module
from repro.frontend.subset import validate_module
from repro.obs.tracer import NULL_TRACER
from repro.regex.ast import Regex


def check_parsed_class(
    parsed: ParsedClass,
    specs: Mapping[str, ClassSpec],
    exit_regexes: Mapping[str, Mapping[int, Regex]] | None = None,
    limits: Limits | None = None,
    tracer=None,
) -> tuple[CheckResult, BitDFA | None]:
    """Run the full pipeline on one class — a pure function.

    Everything the verdict depends on is in the arguments: the parsed
    class, the specs in scope, and (optionally) precomputed inferred
    behaviors per operation.  No module state, no ordering constraints —
    which is what makes the verdict cacheable by content hash and safe
    to compute concurrently across classes (see :mod:`repro.engine`).

    ``limits`` is the check's resource budget: its ``max_states`` caps
    every state-exploration step and its ``timeout`` arms a cooperative
    wall-clock deadline, both raising
    :class:`repro.core.limits.BudgetExceeded` — let it propagate (the
    batch supervisor converts it into a quarantine diagnostic).  Without
    limits only the subset construction's own default cap applies.

    ``tracer`` (default: the no-op :data:`repro.obs.NULL_TRACER`) opens
    one phase span per pipeline step — ``parse`` (the structural lints),
    ``dependency`` (invocation/exhaustiveness analyses), ``infer``
    (behavior construction), ``determinize``, ``usage`` and ``claims``
    — at exactly the sites where the ``limits`` budget already flows.
    Tracing never changes the verdict; with the null tracer the function
    is byte-for-byte the old pipeline.

    Every automata question is answered by one
    :class:`~repro.automata.kernel.KernelCheck` over the
    :class:`~repro.automata.kernel.BitNFA` that
    :func:`~repro.core.behavior.behavior_nfa` builds.

    Returns the diagnostics plus the determinized behavior DFA when the
    check computed one (composite classes past the structural gate).
    """
    limits = limits or Limits()
    tracer = tracer or NULL_TRACER
    deadline = limits.deadline()
    result = CheckResult()
    with tracer.span("phase", "parse"):
        result.extend(lint_spec(parsed))
    structural_errors = not result.ok
    if parsed.is_composite:
        with tracer.span("phase", "dependency"):
            result.extend(check_invocations(parsed, specs))
            result.extend(check_match_exhaustiveness(parsed, specs))
    if structural_errors:
        # The behavior automaton would be built from a broken spec;
        # usage/claim verdicts on it would be noise.
        return result, None
    with tracer.span("phase", "infer"):
        behavior = behavior_nfa(
            parsed,
            exit_regexes=exit_regexes,
            max_states=limits.max_states,
            deadline=deadline,
            tracer=tracer,
        )
    kernel = KernelCheck(
        behavior,
        max_states=limits.max_states,
        deadline=deadline,
        tracer=tracer,
    )
    dfa = None
    if parsed.is_composite:
        with tracer.span("phase", "determinize"):
            dfa = kernel.behavior_dfa()
        with tracer.span("phase", "usage"):
            result.extend(check_subsystem_usage(parsed, specs, kernel))
    with tracer.span("phase", "claims"):
        result.extend(check_claims(parsed, specs, kernel))
        result.extend(check_claim_vacuity(parsed, specs, kernel))
    return result, dfa


def module_diagnostics(
    module: ParsedModule, violations: list[SubsetViolation]
) -> CheckResult:
    """The module-level diagnostics: frontend + whole-module subset checks."""
    result = CheckResult()
    for violation in violations:
        result.diagnostics.append(from_subset_violation(violation))
    for violation in validate_module(module):
        result.diagnostics.append(from_subset_violation(violation))
    return result


@dataclass
class Checker:
    """Checks a parsed module; reusable across classes of one file."""

    module: ParsedModule
    violations: list[SubsetViolation]

    def __post_init__(self) -> None:
        self.specs: dict[str, ClassSpec] = {
            parsed.name: ClassSpec.of(parsed) for parsed in self.module.classes
        }

    # ------------------------------------------------------------------

    def check_class(self, parsed: ParsedClass) -> CheckResult:
        """Run the full pipeline on one class."""
        result, _dfa = check_parsed_class(parsed, self.specs)
        return result

    def check(self) -> CheckResult:
        """Check the whole module."""
        result = module_diagnostics(self.module, self.violations)
        for parsed in self.module.classes:
            result.extend(self.check_class(parsed))
        return result


def check_source(source: str, source_name: str = "<string>") -> CheckResult:
    """Parse and check annotated MicroPython source code."""
    module, violations = parse_module(source, source_name)
    return Checker(module, violations).check()


def check_path(path: str | Path) -> CheckResult:
    """Parse and check an annotated MicroPython file."""
    module, violations = parse_file(path)
    return Checker(module, violations).check()
