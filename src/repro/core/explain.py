"""Counterexample explanation: from a flat trace to a narrated failure.

The paper's reports print a flat counterexample (``open_a, a.test,
a.open``).  For larger composites flat traces get hard to read, so this
module segments a counterexample by the composite operation that
produced each event and narrates the failing subsystem's progress
through its specification::

    during open_a:
        a.test        Valve 'a': test -> exit ['open']
        a.open        Valve 'a': open -> exit ['close']
    lifecycle ends here
        Valve 'a' is not in a final state (close or clean still required)

Used by the ``repro explain`` CLI command and available on the API as
:func:`explain_counterexample`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.spec import START_BIT, ClassSpec
from repro.frontend.model_ast import ParsedClass


@dataclass(frozen=True)
class TraceStep:
    """One event of the counterexample, attributed and annotated.

    ``owner_operation`` is the composite operation during which the
    event happened; it is ``None`` exactly when the event *is* a
    composite operation (a segment header).
    """

    event: str
    owner_operation: str | None
    annotation: str


@dataclass(frozen=True)
class Explanation:
    """The narrated counterexample."""

    steps: tuple[TraceStep, ...]
    ending: str

    def format(self) -> str:
        lines: list[str] = []
        for step in self.steps:
            if step.owner_operation is None:
                lines.append(f"during {step.event}:")
            else:
                lines.append(f"    {step.event:<16} {step.annotation}".rstrip())
        lines.append("lifecycle ends here")
        lines.append(f"    {self.ending}")
        return "\n".join(lines)


def _describe_subsystem_event(
    specs: dict[str, ClassSpec],
    field_classes: dict[str, str],
    event: str,
    cursor: dict[str, int],
) -> str:
    """Advance the per-field spec cursor (a :attr:`ClassSpec.table`
    bitset) and describe the move."""
    field, _dot, method = event.partition(".")
    class_name = field_classes.get(field)
    spec = specs.get(class_name) if class_name else None
    if spec is None:
        return ""
    allowed = spec.table.allowed(cursor.get(field, START_BIT))
    operation = spec.operation(method)
    if operation is None:
        cursor[field] = 0
        return f"{class_name} '{field}': {method} is not a declared operation"
    if method not in allowed:
        legal = ", ".join(sorted(allowed)) or "(none)"
        cursor[field] = 0
        return (
            f"{class_name} '{field}': {method} NOT ALLOWED here "
            f"(allowed: {legal})"
        )
    cursor[field] = spec.table.exits[method]
    exits = " | ".join(
        "[" + ", ".join(point.next_methods) + "]" for point in operation.returns
    )
    return f"{class_name} '{field}': {method} -> exit {exits}"


def explain_counterexample(
    parsed: ParsedClass,
    specs: dict[str, ClassSpec],
    trace: tuple[str, ...],
) -> Explanation:
    """Narrate ``trace`` (a usage counterexample of ``parsed``)."""
    own_operations = set(parsed.operation_names())
    field_classes = {
        declaration.field_name: declaration.class_name
        for declaration in parsed.subsystems
    }
    cursor: dict[str, int] = {}
    steps: list[TraceStep] = []
    current_owner: str | None = None
    for event in trace:
        if event in own_operations:
            current_owner = event
            steps.append(TraceStep(event=event, owner_operation=None, annotation=""))
            continue
        annotation = _describe_subsystem_event(specs, field_classes, event, cursor)
        steps.append(
            TraceStep(
                event=event,
                owner_operation=current_owner or "(top level)",
                annotation=annotation,
            )
        )

    # Which subsystems are left mid-lifecycle at the end?
    stuck: list[str] = []
    for field, states in cursor.items():
        # The cursor only holds fields whose class has a spec.
        class_name = field_classes[field]
        spec = specs[class_name]
        if states and not states & spec.table.accepting:
            finals = ", ".join(op.name for op in spec.final_operations()) or "(none)"
            stuck.append(
                f"{class_name} '{field}' is not in a final state "
                f"({finals} still required)"
            )
    ending = "; ".join(stuck) if stuck else "all subsystems completed their lifecycles"
    return Explanation(steps=tuple(steps), ending=ending)
