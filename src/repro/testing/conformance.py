"""Model-based conformance testing of implementations.

Given a class specification (extracted statically) and an actual
implementation class, the harness

1. generates a transition-covering suite of complete lifecycles from the
   specification automaton (:mod:`repro.testing.paths`),
2. drives a *monitored* fresh instance through each sequence,
3. classifies each run:

   * ``PASSED`` — the sequence executed and finalized cleanly;
   * ``INFEASIBLE`` — the implementation's data flow took a different
     exit than the sequence assumed (an :class:`OrderViolationError`
     mid-run).  Not a fault: the static model over-approximates, exactly
     as §2 of the paper says;
   * ``VIOLATION`` — the implementation returned a next-method set its
     own specification never declares (:class:`SpecMismatchError`), or
     raised an unexpected exception.  A genuine conformance fault.

An implementation *conforms* when no sequence produces a violation and
at least one sequence passes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.spec import ClassSpec
from repro.runtime.monitor import (
    IncompleteLifecycleError,
    OrderViolationError,
    SpecMismatchError,
    call_operation,
    finalize,
    monitored,
)
from repro.testing.paths import transition_cover


class Outcome(enum.Enum):
    """Classification of one test sequence."""

    PASSED = "passed"
    INFEASIBLE = "infeasible"
    VIOLATION = "violation"


@dataclass(frozen=True)
class SequenceResult:
    """The outcome of driving one lifecycle sequence."""

    sequence: tuple[str, ...]
    outcome: Outcome
    detail: str = ""

    def format(self) -> str:
        rendered = ", ".join(self.sequence) or "(empty lifecycle)"
        text = f"[{self.outcome.value:>10}] {rendered}"
        if self.detail:
            text += f"  — {self.detail}"
        return text


@dataclass
class ConformanceReport:
    """Aggregated results of a conformance run."""

    spec_name: str
    results: list[SequenceResult] = field(default_factory=list)

    def count(self, outcome: Outcome) -> int:
        return sum(1 for result in self.results if result.outcome is outcome)

    @property
    def conformant(self) -> bool:
        return self.count(Outcome.VIOLATION) == 0 and self.count(Outcome.PASSED) > 0

    def violations(self) -> list[SequenceResult]:
        return [r for r in self.results if r.outcome is Outcome.VIOLATION]

    def format(self) -> str:
        header = (
            f"conformance of {self.spec_name}: "
            f"{self.count(Outcome.PASSED)} passed, "
            f"{self.count(Outcome.INFEASIBLE)} infeasible, "
            f"{self.count(Outcome.VIOLATION)} violation(s) "
            f"-> {'CONFORMANT' if self.conformant else 'NOT CONFORMANT'}"
        )
        lines = [header]
        lines.extend(result.format() for result in self.results)
        return "\n".join(lines)


def generate_suite(spec: ClassSpec, max_sequences: int | None = None) -> list[tuple[str, ...]]:
    """A transition-covering suite of complete lifecycles for ``spec``,
    cut to its first ``max_sequences`` (which must not be negative)."""
    if max_sequences is not None and max_sequences < 0:
        raise ValueError(f"max_sequences must be >= 0, got {max_sequences}")
    suite = transition_cover(spec.dfa())
    if max_sequences is not None:
        suite = suite[:max_sequences]
    return suite


def run_sequence(
    factory: Callable[[], object],
    sequence: Sequence[str],
) -> SequenceResult:
    """Drive one monitored instance through ``sequence``."""
    instance = factory()
    performed: list[str] = []
    try:
        for name in sequence:
            # Class-side lookup: instance attributes may shadow
            # operations (the paper's Valve stores a Pin in self.clean).
            call_operation(instance, name)
            performed.append(name)
        finalize(instance)
    except OrderViolationError as error:
        return SequenceResult(
            sequence=tuple(sequence),
            outcome=Outcome.INFEASIBLE,
            detail=f"after {', '.join(performed) or '(start)'}: {error}",
        )
    except IncompleteLifecycleError as error:
        # The whole sequence ran but the implementation's chosen exits
        # left it mid-lifecycle: the sequence was infeasible as a
        # *complete* lifecycle for this data flow.
        return SequenceResult(
            sequence=tuple(sequence), outcome=Outcome.INFEASIBLE, detail=str(error)
        )
    except SpecMismatchError as error:
        return SequenceResult(
            sequence=tuple(sequence), outcome=Outcome.VIOLATION, detail=str(error)
        )
    except Exception as error:  # noqa: BLE001 - impl faults are data here
        return SequenceResult(
            sequence=tuple(sequence),
            outcome=Outcome.VIOLATION,
            detail=f"unexpected {type(error).__name__}: {error}",
        )
    return SequenceResult(sequence=tuple(sequence), outcome=Outcome.PASSED)


def check_conformance(
    implementation: type,
    spec: ClassSpec,
    factory: Callable[[], object] | None = None,
    max_sequences: int | None = None,
) -> ConformanceReport:
    """Run the full conformance harness.

    ``implementation`` is wrapped by the runtime monitor (in place);
    ``factory`` defaults to calling the class with no arguments.
    """
    wrapped = monitored(implementation, spec=spec)
    if factory is None:
        factory = wrapped
    report = ConformanceReport(spec_name=spec.name)
    for sequence in generate_suite(spec, max_sequences):
        report.results.append(run_sequence(factory, sequence))
    return report
