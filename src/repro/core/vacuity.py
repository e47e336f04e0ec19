"""Vacuity detection for temporal claims.

A claim can *hold for the wrong reason*: ``G (a.open -> F a.close)`` is
satisfied by a class that never opens the valve at all.  Following the
classic occurrence-based method (Beer et al.), each atom *occurrence* of
a holding claim is replaced by the polarity-dependent **strengthening**
constant — ``false`` for positive occurrences, ``true`` for negative
ones — which can only make the claim harder to satisfy.  If a
strengthened mutant still holds on every trace, that occurrence never
influenced the verdict and the claim is reported *vacuous* with the
witnessing occurrence (for the response example above: replacing the
consequent ``F a.close`` by ``false`` leaves ``G (a.open -> false)``,
i.e. "a.open never happens", which indeed holds — the trigger is dead).

Vacuity findings are warnings — the claim is still true — but they are
exactly the alarms a maintainer wants when a refactoring silently
disconnects a requirement from the behavior it was written for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.kernel import KernelCheck
from repro.core.behavior import behavior_nfa
from repro.core.claims import claim_alphabet
from repro.core.diagnostics import CheckResult, Diagnostic, Severity
from repro.frontend.model_ast import ParsedClass
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
    atoms as formula_atoms,
    conj,
    disj,
    neg,
)
from repro.ltlf.parser import ClaimSyntaxError, parse_claim


@dataclass(frozen=True)
class VacuityWitness:
    """One strengthening that leaves the claim universally satisfied."""

    atom_name: str
    occurrence: int
    replacement: str  # "true" or "false"


def replace_atom(formula: Formula, name: str, value: Formula) -> Formula:
    """Replace every occurrence of atom ``name`` by ``value``."""
    if isinstance(formula, Atom):
        return value if formula.name == name else formula
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Not):
        return neg(replace_atom(formula.operand, name, value))
    if isinstance(formula, And):
        return conj(replace_atom(op, name, value) for op in formula.operands)
    if isinstance(formula, Or):
        return disj(replace_atom(op, name, value) for op in formula.operands)
    if isinstance(formula, Next):
        return Next(replace_atom(formula.operand, name, value))
    if isinstance(formula, WeakNext):
        return WeakNext(replace_atom(formula.operand, name, value))
    if isinstance(formula, Eventually):
        return Eventually(replace_atom(formula.operand, name, value))
    if isinstance(formula, Globally):
        return Globally(replace_atom(formula.operand, name, value))
    if isinstance(formula, Until):
        return Until(
            replace_atom(formula.left, name, value),
            replace_atom(formula.right, name, value),
        )
    if isinstance(formula, WeakUntil):
        return WeakUntil(
            replace_atom(formula.left, name, value),
            replace_atom(formula.right, name, value),
        )
    if isinstance(formula, Release):
        return Release(
            replace_atom(formula.left, name, value),
            replace_atom(formula.right, name, value),
        )
    raise TypeError(f"not a Formula: {formula!r}")


def strengthening_mutants(formula: Formula) -> list[tuple[str, int, str, Formula]]:
    """One mutant per atom occurrence: the occurrence replaced by its
    polarity-dependent strengthening constant.

    Returns ``(atom name, occurrence index, replacement label, mutant)``
    tuples.  Every operand of the temporal operators is monotone, so
    polarity only flips under negation.
    """
    mutants: list[tuple[str, int, str, Formula]] = []
    counter = [0]

    def rebuild(node: Formula, positive: bool, target: int) -> Formula:
        """Copy of ``formula`` with occurrence ``target`` strengthened."""
        if isinstance(node, Atom):
            index = counter[0]
            counter[0] += 1
            if index == target:
                return FALSE if positive else TRUE
            return node
        if isinstance(node, (Top, Bottom)):
            return node
        if isinstance(node, Not):
            return neg(rebuild(node.operand, not positive, target))
        if isinstance(node, And):
            return conj(rebuild(op, positive, target) for op in node.operands)
        if isinstance(node, Or):
            return disj(rebuild(op, positive, target) for op in node.operands)
        if isinstance(node, Next):
            return Next(rebuild(node.operand, positive, target))
        if isinstance(node, WeakNext):
            return WeakNext(rebuild(node.operand, positive, target))
        if isinstance(node, Eventually):
            return Eventually(rebuild(node.operand, positive, target))
        if isinstance(node, Globally):
            return Globally(rebuild(node.operand, positive, target))
        if isinstance(node, (Until, WeakUntil, Release)):
            rebuilt_left = rebuild(node.left, positive, target)
            rebuilt_right = rebuild(node.right, positive, target)
            return type(node)(rebuilt_left, rebuilt_right)
        raise TypeError(f"not a Formula: {node!r}")

    # First pass: enumerate occurrences with their names and polarities.
    occurrences: list[tuple[str, bool]] = []

    def scan(node: Formula, positive: bool) -> None:
        if isinstance(node, Atom):
            occurrences.append((node.name, positive))
        elif isinstance(node, Not):
            scan(node.operand, not positive)
        elif isinstance(node, (And, Or)):
            for operand in node.operands:
                scan(operand, positive)
        elif isinstance(node, (Next, WeakNext, Eventually, Globally)):
            scan(node.operand, positive)
        elif isinstance(node, (Until, WeakUntil, Release)):
            scan(node.left, positive)
            scan(node.right, positive)

    scan(formula, True)
    for target, (name, positive) in enumerate(occurrences):
        counter[0] = 0
        mutant = rebuild(formula, True, target)
        label = "false" if positive else "true"
        mutants.append((name, target, label, mutant))
    return mutants


def find_vacuous_atoms(
    parsed: ParsedClass,
    formula: Formula,
    specs: dict | None = None,
    kernel: KernelCheck | None = None,
) -> list[VacuityWitness]:
    """Atoms whose replacement by a constant keeps the claim universally
    true.  Only meaningful when the claim itself holds (callers check)."""
    if kernel is None:
        kernel = KernelCheck(behavior_nfa(parsed))
    observed = claim_alphabet(
        parsed, kernel.behavior, formula_atoms(formula), specs
    )
    witnesses: list[VacuityWitness] = []
    for name, occurrence, label, mutant in strengthening_mutants(formula):
        if mutant == formula:
            continue
        if kernel.holds_on(mutant, observed):
            witnesses.append(
                VacuityWitness(atom_name=name, occurrence=occurrence, replacement=label)
            )
    return witnesses


def check_claim_vacuity(
    parsed: ParsedClass,
    specs: dict | None = None,
    kernel: KernelCheck | None = None,
) -> CheckResult:
    """Warn about claims of ``parsed`` that hold vacuously.

    Claims that fail are skipped here — the claim checker already
    reports those as errors.
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
        except ClaimSyntaxError:
            continue  # reported by check_claims
        observed = claim_alphabet(parsed, behavior, formula_atoms(formula), specs)
        if formula_atoms(formula) - observed - set(behavior.alphabet):
            continue  # unknown atoms: reported by check_claims
        if not kernel.holds_on(formula, observed):
            continue  # failing claims are not vacuous, they are wrong
        for witness in find_vacuous_atoms(parsed, formula, specs, kernel):
            result.diagnostics.append(
                Diagnostic(
                    severity=Severity.WARNING,
                    code="vacuous-claim",
                    message=(
                        f"claim {formula_text!r} holds vacuously: "
                        f"strengthening occurrence {witness.occurrence} of "
                        f"{witness.atom_name!r} to {witness.replacement} "
                        "leaves it satisfied by every trace"
                    ),
                    class_name=parsed.name,
                    formula=formula_text,
                    lineno=parsed.lineno,
                )
            )
    return result
