"""Specification refinement: may class B substitute for class A?

A composite verified against subsystem class ``A`` stays correct when
the field is re-bound to class ``B`` iff every complete lifecycle ``B``
*requires* is one ``A`` allows — i.e. the composite, which was proven to
drive the field only through ``A``-lifecycles, never takes ``B`` outside
its own specification.  Substitutability is therefore the **reverse**
inclusion ``L(spec(A)) ⊆ L(spec(B))``: the new class must accept every
usage pattern the old one permitted.

``check_refinement(general, refined)`` decides ``L(refined) ⊆
L(general)`` (the refinement direction used when *strengthening* a
spec); ``check_substitutable(old, new)`` is the deployment question
above.  Both produce diagnostics with a shortest witness lifecycle, and
a per-operation compatibility pre-check gives actionable messages when
the alphabets do not even line up.  The inclusions are read over the
joint alphabet: a spec rejects every lifecycle that uses an operation
it does not declare.
"""

from __future__ import annotations

from repro.automata.kernel import (
    bitset_difference_counterexample,
    bitset_equivalent,
)
from repro.core.diagnostics import CheckResult, Diagnostic, Severity
from repro.core.spec import ClassSpec


def _alphabet_report(base: ClassSpec, other: ClassSpec) -> list[Diagnostic]:
    """Operations present in one spec but not the other (warnings)."""
    diagnostics: list[Diagnostic] = []
    missing = set(base.operation_names()) - set(other.operation_names())
    for name in sorted(missing):
        diagnostics.append(
            Diagnostic(
                severity=Severity.WARNING,
                code="refinement-alphabet",
                message=(
                    f"{base.name} declares operation {name!r}, which "
                    f"{other.name} does not declare"
                ),
                class_name=other.name,
            )
        )
    return diagnostics


def check_refinement(general: ClassSpec, refined: ClassSpec) -> CheckResult:
    """Does ``refined`` only allow lifecycles that ``general`` allows?

    ``L(refined) ⊆ L(general)``; a failure carries the shortest
    lifecycle ``refined`` accepts but ``general`` rejects.
    """
    result = CheckResult()
    result.diagnostics.extend(_alphabet_report(refined, general))
    witness = bitset_difference_counterexample(refined.dfa(), general.dfa())
    if witness is not None:
        result.diagnostics.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="not-a-refinement",
                message=(
                    f"{refined.name} allows a lifecycle that {general.name} "
                    "forbids"
                ),
                class_name=refined.name,
                counterexample=witness,
            )
        )
    return result


def check_substitutable(old: ClassSpec, new: ClassSpec) -> CheckResult:
    """May instances of ``new`` replace instances of ``old`` in verified
    composites?

    Requires ``L(old) ⊆ L(new)``: every usage pattern proven valid
    against ``old`` must remain valid for ``new``.  A failure carries
    the shortest previously-legal lifecycle that ``new`` rejects.
    """
    result = CheckResult()
    result.diagnostics.extend(_alphabet_report(old, new))
    witness = bitset_difference_counterexample(old.dfa(), new.dfa())
    if witness is not None:
        result.diagnostics.append(
            Diagnostic(
                severity=Severity.ERROR,
                code="not-substitutable",
                message=(
                    f"{new.name} rejects a lifecycle that {old.name} "
                    "permitted; composites verified against "
                    f"{old.name} may break"
                ),
                class_name=new.name,
                counterexample=witness,
            )
        )
    return result


def equivalent_specs(left: ClassSpec, right: ClassSpec) -> bool:
    """Do the two specifications denote the same lifecycle language?"""
    return bitset_equivalent(left.dfa(), right.dfa())
