"""Subsystem-usage verification (the ``INVALID SUBSYSTEM USAGE`` check).

A composite class must drive each constrained field through a valid,
*complete* lifecycle of the field's class: every trace the composite can
produce, projected onto the field's events, must be a word of the
field's specification language (which contains the empty word — never
using a subsystem is fine, as the paper's ``BadSector`` verdict shows:
only valve ``a`` is reported, not the untouched valve ``b``).

The check is language inclusion:

    ``L(behavior(C))  ⊆  lift(L(spec(S) prefixed with "f.")))``

where ``lift`` self-loops on all events that are not the field's.  When
inclusion fails, the shortest word of the difference automaton is the
counterexample, and replaying its projection through the spec DFA
yields the per-subsystem annotation (``test, >open< (not final)``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.kernel import BitDFA, KernelCheck, determinize_bitset
from repro.core.behavior import behavior_nfa
from repro.core.diagnostics import (
    INVALID_SUBSYSTEM_USAGE,
    CheckResult,
    Diagnostic,
    Severity,
    SubsystemError,
)
from repro.core.spec import ClassSpec
from repro.frontend.model_ast import ParsedClass


@dataclass(frozen=True)
class UsageViolation:
    """One field's failed inclusion check, before rendering."""

    field_name: str
    class_name: str
    counterexample: tuple[str, ...]


def replay_against_spec(
    spec: ClassSpec,
    trace: tuple[str, ...],
    prefix: str,
    dfa: BitDFA | None = None,
) -> str | None:
    """Replay the ``prefix``-projected ``trace`` through ``spec``.

    Returns the paper-style rendering of the failure (``test, >open<
    (not final)`` / ``test, >clean<, ... (not allowed)``), or ``None``
    when the projected trace is a valid complete lifecycle.  ``dfa`` is
    the determinized (unprefixed) spec when the caller already has it.
    """
    projected = [
        label[len(prefix):] for label in trace if label.startswith(prefix)
    ]
    if dfa is None:
        dfa = determinize_bitset(spec.bitnfa())
    state = dfa.initial
    consumed: list[str] = []
    for method in projected:
        symbol_id = dfa.alphabet.get(method)
        successor = -1 if symbol_id < 0 else dfa.successor(state, symbol_id)
        if successor < 0:
            rendered = consumed + [f">{method}< (not allowed)"]
            return ", ".join(rendered)
        consumed.append(method)
        state = successor
    if not dfa.accepting >> state & 1:
        if consumed:
            consumed[-1] = f">{consumed[-1]}< (not final)"
            return ", ".join(consumed)
        return "(no call performed)"
    return None


def find_usage_violations(
    parsed: ParsedClass,
    specs: dict[str, ClassSpec],
    kernel: KernelCheck | None = None,
) -> list[UsageViolation]:
    """Run the inclusion check for every declared subsystem field.

    ``kernel`` is the class check's automata facade (built from
    :func:`~repro.core.behavior.behavior_nfa` when omitted); it decides
    each inclusion and returns the length-lex-minimal counterexample.
    """
    if kernel is None:
        kernel = KernelCheck(behavior_nfa(parsed))
    violations: list[UsageViolation] = []
    for declaration in parsed.subsystems:
        if declaration.field_name not in parsed.subsystem_fields:
            continue
        spec = specs.get(declaration.class_name)
        if spec is None:
            continue  # unknown subsystem class: diagnosed by invocation analysis
        counterexample = kernel.usage_counterexample(
            spec, declaration.field_name + "."
        )
        if counterexample is not None:
            violations.append(
                UsageViolation(
                    field_name=declaration.field_name,
                    class_name=declaration.class_name,
                    counterexample=counterexample,
                )
            )
    return violations


def check_subsystem_usage(
    parsed: ParsedClass,
    specs: dict[str, ClassSpec],
    kernel: KernelCheck | None = None,
) -> CheckResult:
    """The full usage check, rendered as diagnostics.

    Violations sharing the same counterexample trace are merged into one
    diagnostic with several ``Subsystems errors`` entries, matching the
    paper's report shape.
    """
    result = CheckResult()
    if kernel is None:
        kernel = KernelCheck(behavior_nfa(parsed))
    violations = find_usage_violations(parsed, specs, kernel)
    if not violations:
        return result
    # Group by counterexample; shortest trace first for determinism.
    by_trace: dict[tuple[str, ...], list[UsageViolation]] = {}
    for violation in violations:
        by_trace.setdefault(violation.counterexample, []).append(violation)
    for trace in sorted(by_trace, key=lambda t: (len(t), t)):
        grouped = by_trace[trace]
        subsystem_errors: list[SubsystemError] = []
        for violation in grouped:
            spec = specs[violation.class_name]
            rendered = replay_against_spec(
                spec, trace, violation.field_name + ".", kernel.spec_dfa(spec)
            )
            if rendered is None:
                # The shortest counterexample of this field's inclusion
                # check always fails its own replay; defensive fallback.
                rendered = "(invalid usage)"
            subsystem_errors.append(
                SubsystemError(
                    class_name=violation.class_name,
                    field_name=violation.field_name,
                    rendered=rendered,
                )
            )
        result.diagnostics.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="invalid-subsystem-usage",
                title=INVALID_SUBSYSTEM_USAGE,
                message=(
                    f"class {parsed.name} uses "
                    + ", ".join(
                        f"{v.class_name} '{v.field_name}'" for v in grouped
                    )
                    + " in a way that violates the subsystem specification"
                ),
                class_name=parsed.name,
                counterexample=trace,
                subsystem_errors=tuple(subsystem_errors),
            )
        )
    return result
