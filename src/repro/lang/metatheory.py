"""Executable metatheory: bounded checks of Theorems 1–2 and Corollary 1.

The paper mechanizes its results in Coq.  Coq is unavailable in this
reproduction, so we *bounded-model-check* the same statements instead
(documented as a substitution in DESIGN.md):

* **Theorem 1 (soundness)** — every trace derivable from the semantics is
  a word of ``infer(p)``;
* **Theorem 2 (completeness)** — every word of ``infer(p)`` is derivable;
* the two **lemmas** inside the proofs — the ongoing component ``r`` of
  ``⟦p⟧`` matches exactly the status-``0`` traces, and the returned set
  ``s`` matches exactly the status-``R`` traces;
* **Corollary 1 (regularity)** — ``infer(p)`` survives the round trip
  regex → NFA → DFA → regex with its language intact, on the bitset
  kernel the checker runs (Thompson, subset construction, Hopcroft,
  state elimination).

Each check runs over *all* programs of the bare calculus up to a size
budget and over all traces up to a length budget, so every inference
rule and every case of the paper's induction is exercised on every small
instance.  The hypothesis test-suite re-runs the same predicates on
random large programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.lang.ast import Program, format_program
from repro.lang.generator import all_programs
from repro.lang.inference import behavior, infer
from repro.lang.semantics import language, ongoing_traces, returned_traces
from repro.regex.ast import union_all
from repro.regex.enumerate_words import words_up_to


@dataclass
class TheoremReport:
    """Outcome of a bounded metatheory check.

    ``counterexamples`` holds the first few failing programs, formatted
    in the paper's syntax (empty when the check passes).
    """

    name: str
    programs_checked: int = 0
    max_program_size: int = 0
    max_trace_length: int = 0
    counterexamples: list[str] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        verdict = "HOLDS" if self.holds else "FAILS"
        return (
            f"{self.name}: {verdict} on {self.programs_checked} programs "
            f"(size <= {self.max_program_size}, traces <= {self.max_trace_length})"
        )


def check_soundness(program: Program, max_length: int) -> bool:
    """Theorem 1 on one program: ``L(p) ⊆ infer(p)`` up to the bound."""
    inferred = words_up_to(infer(program), max_length)
    return language(program, max_length) <= inferred


def check_completeness(program: Program, max_length: int) -> bool:
    """Theorem 2 on one program: ``infer(p) ⊆ L(p)`` up to the bound."""
    inferred = words_up_to(infer(program), max_length)
    return inferred <= language(program, max_length)


def check_ongoing_lemma(program: Program, max_length: int) -> bool:
    """Lemma (1) of both proofs: the ``r`` of ``⟦p⟧`` is exactly the
    status-``0`` trace set."""
    inferred = words_up_to(behavior(program).ongoing, max_length)
    return inferred == ongoing_traces(program, max_length)


def check_returned_lemma(program: Program, max_length: int) -> bool:
    """Lemma (2) of both proofs: the union of ``s`` is exactly the
    status-``R`` trace set."""
    returned_regex = union_all(behavior(program).returned_set())
    inferred = words_up_to(returned_regex, max_length)
    return inferred == returned_traces(program, max_length)


def check_regularity(program: Program, max_length: int) -> bool:
    """Corollary 1 on one program: the language survives the automaton
    round trip regex → NFA → DFA → regex, on the kernel construction the
    checker runs."""
    from repro.automata.kernel import (
        bitdfa_to_regex,
        determinize_bitset,
        minimize_bitset,
        thompson_bitnfa,
    )

    inferred = infer(program)
    dfa = minimize_bitset(determinize_bitset(thompson_bitnfa(inferred)))
    round_tripped = bitdfa_to_regex(dfa)
    return words_up_to(inferred, max_length) == words_up_to(round_tripped, max_length)


_CHECKS = {
    "Theorem 1 (soundness)": check_soundness,
    "Theorem 2 (completeness)": check_completeness,
    "Lemma ongoing (r ~ status 0)": check_ongoing_lemma,
    "Lemma returned (s ~ status R)": check_returned_lemma,
    "Corollary 1 (regularity)": check_regularity,
}


def check_theorem(
    name: str,
    max_program_size: int = 4,
    max_trace_length: int = 6,
    alphabet: Sequence[str] = ("a", "b"),
    programs: Iterable[Program] | None = None,
    max_counterexamples: int = 3,
) -> TheoremReport:
    """Run one named check over a program space and collect a report."""
    if name not in _CHECKS:
        raise KeyError(f"unknown theorem {name!r}; choose from {sorted(_CHECKS)}")
    check = _CHECKS[name]
    report = TheoremReport(
        name=name,
        max_program_size=max_program_size,
        max_trace_length=max_trace_length,
    )
    space = programs if programs is not None else all_programs(max_program_size, alphabet)
    for program in space:
        report.programs_checked += 1
        if not check(program, max_trace_length):
            report.counterexamples.append(format_program(program))
            if len(report.counterexamples) >= max_counterexamples:
                break
    return report


def check_all_theorems(
    max_program_size: int = 4,
    max_trace_length: int = 6,
    alphabet: Sequence[str] = ("a", "b"),
) -> list[TheoremReport]:
    """Run every metatheory check over the same bounded-exhaustive space."""
    programs = list(all_programs(max_program_size, alphabet))
    return [
        check_theorem(
            name,
            max_program_size=max_program_size,
            max_trace_length=max_trace_length,
            alphabet=alphabet,
            programs=programs,
        )
        for name in _CHECKS
    ]


def theorem_names() -> tuple[str, ...]:
    """The names accepted by :func:`check_theorem`."""
    return tuple(_CHECKS)
