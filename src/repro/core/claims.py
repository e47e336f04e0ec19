"""Temporal-claim verification (the ``FAIL TO MEET REQUIREMENT`` check).

Each ``@claim`` formula must hold on *every* trace of the class.  The
check intersects the class's trace language with the DFA of the negated
formula; a non-empty intersection is a violation and its shortest word
is the counterexample the report prints.

Claim traces are presented the way the paper presents them: over the
events the formula can observe — subsystem-call events for composite
classes (``a.test, a.open, ...``), plus any own-operation names the
formula mentions (which is also how claims on *base* classes work, e.g.
``@claim("G (open -> F close)")`` on ``Valve``).
"""

from __future__ import annotations

from repro.automata.kernel import BitNFA, KernelCheck
from repro.core.behavior import behavior_nfa
from repro.core.spec import ClassSpec
from repro.core.diagnostics import (
    FAIL_TO_MEET_REQUIREMENT,
    CheckResult,
    Diagnostic,
    Severity,
)
from repro.frontend.model_ast import ParsedClass
from repro.ltlf.ast import atoms as formula_atoms
from repro.ltlf.parser import ClaimSyntaxError, parse_claim


def claim_alphabet(
    parsed: ParsedClass,
    behavior: BitNFA,
    formula_atom_names: frozenset[str],
    specs: dict[str, "ClassSpec"] | None = None,
) -> frozenset[str]:
    """The events a claim observes: dotted subsystem events plus any
    own-operation names the formula explicitly mentions.

    With ``specs`` available, the dotted vocabulary covers *every*
    operation each subsystem class declares — a claim may meaningfully
    mention an event the bodies never produce (that is exactly what a
    violated absence or a vacuous response looks like).
    """
    dotted = set(label for label in behavior.alphabet if "." in label)
    if specs is not None:
        for declaration in parsed.subsystems:
            if declaration.field_name not in parsed.subsystem_fields:
                continue
            spec = specs.get(declaration.class_name)
            if spec is not None:
                dotted.update(
                    f"{declaration.field_name}.{name}"
                    for name in spec.operation_names()
                )
    # A formula may mention an event of a declared field that the bodies
    # never produce (that is what a violated absence looks like); such
    # atoms are observable even when no spec table is supplied.
    dotted.update(
        name
        for name in formula_atom_names
        if name.partition(".")[0] in parsed.subsystem_fields
    )
    own = frozenset(parsed.operation_names())
    if not dotted:
        # Base class: claims range over the full operation vocabulary
        # (projecting unmentioned operations away would distort X/G).
        return own
    return frozenset(dotted) | (formula_atom_names & own)


def check_claims(
    parsed: ParsedClass,
    specs: dict[str, "ClassSpec"] | None = None,
    kernel: KernelCheck | None = None,
) -> CheckResult:
    """Verify every ``@claim`` of ``parsed``.

    ``kernel`` is the class check's automata facade (built from
    :func:`~repro.core.behavior.behavior_nfa` when omitted); its
    projections are shared with the vacuity screen.
    """
    result = CheckResult()
    if not parsed.claims:
        return result
    if kernel is None:
        kernel = KernelCheck(behavior_nfa(parsed))
    behavior = kernel.behavior
    for formula_text in parsed.claims:
        try:
            formula = parse_claim(formula_text)
        except ClaimSyntaxError as error:
            result.diagnostics.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="bad-claim",
                    message=f"cannot parse claim {formula_text!r}: {error}",
                    class_name=parsed.name,
                    lineno=parsed.lineno,
                )
            )
            continue
        atom_names = formula_atoms(formula)
        observed = claim_alphabet(parsed, behavior, atom_names, specs)
        unknown_atoms = atom_names - observed - set(behavior.alphabet)
        if unknown_atoms:
            result.diagnostics.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="bad-claim",
                    message=(
                        f"claim {formula_text!r} mentions events that the "
                        f"class never produces: {sorted(unknown_atoms)}"
                    ),
                    class_name=parsed.name,
                    lineno=parsed.lineno,
                )
            )
            continue
        counterexample = kernel.claim_counterexample(formula, observed)
        if counterexample is not None:
            result.diagnostics.append(
                Diagnostic(
                    severity=Severity.ERROR,
                    code="unmet-requirement",
                    title=FAIL_TO_MEET_REQUIREMENT,
                    message=(
                        f"class {parsed.name} violates the temporal claim "
                        f"{formula_text!r}"
                    ),
                    class_name=parsed.name,
                    formula=formula_text,
                    counterexample=counterexample,
                    lineno=parsed.lineno,
                )
            )
    return result
