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
from functools import cached_property
from typing import Iterable, Sequence

from repro.lang.ast import Program, format_program
from repro.lang.generator import all_programs
from repro.lang.inference import Behavior, behavior
from repro.lang.semantics import language, ongoing_traces, returned_traces
from repro.regex.ast import Regex, union_all
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


class _Program:
    """One program at one trace bound, with what the checks share about
    it (its behavior, ``infer(p)``, that regex's words and ``L(p)``)
    computed on first use and dropped with the object, so a program
    space is enumerated once however many checks run over it."""

    def __init__(self, program: Program, max_length: int):
        self.program = program
        self.max_length = max_length

    @cached_property
    def behavior(self) -> Behavior:
        return behavior(self.program)

    @cached_property
    def inferred(self) -> Regex:
        return self.behavior.merged()  # infer(p)

    @cached_property
    def inferred_words(self) -> frozenset[tuple[str, ...]]:
        return words_up_to(self.inferred, self.max_length)

    @cached_property
    def language(self) -> frozenset[tuple[str, ...]]:
        return language(self.program, self.max_length)

    def soundness(self) -> bool:
        return self.language <= self.inferred_words

    def completeness(self) -> bool:
        return self.inferred_words <= self.language

    def ongoing_lemma(self) -> bool:
        inferred = words_up_to(self.behavior.ongoing, self.max_length)
        return inferred == ongoing_traces(self.program, self.max_length)

    def returned_lemma(self) -> bool:
        returned_regex = union_all(self.behavior.returned_set())
        inferred = words_up_to(returned_regex, self.max_length)
        return inferred == returned_traces(self.program, self.max_length)

    def regularity(self) -> bool:
        from repro.automata.kernel import (
            bitdfa_to_regex,
            determinize_bitset,
            minimize_bitset,
            thompson_bitnfa,
        )

        dfa = minimize_bitset(determinize_bitset(thompson_bitnfa(self.inferred)))
        round_tripped = bitdfa_to_regex(dfa)
        return self.inferred_words == words_up_to(round_tripped, self.max_length)


def check_soundness(program: Program, max_length: int) -> bool:
    """Theorem 1 on one program: ``L(p) ⊆ infer(p)`` up to the bound."""
    return _Program(program, max_length).soundness()


def check_completeness(program: Program, max_length: int) -> bool:
    """Theorem 2 on one program: ``infer(p) ⊆ L(p)`` up to the bound."""
    return _Program(program, max_length).completeness()


def check_ongoing_lemma(program: Program, max_length: int) -> bool:
    """Lemma (1) of both proofs: the ``r`` of ``⟦p⟧`` is exactly the
    status-``0`` trace set."""
    return _Program(program, max_length).ongoing_lemma()


def check_returned_lemma(program: Program, max_length: int) -> bool:
    """Lemma (2) of both proofs: the union of ``s`` is exactly the
    status-``R`` trace set."""
    return _Program(program, max_length).returned_lemma()


def check_regularity(program: Program, max_length: int) -> bool:
    """Corollary 1 on one program: the language survives the automaton
    round trip regex → NFA → DFA → regex, on the kernel construction the
    checker runs."""
    return _Program(program, max_length).regularity()


_CHECKS = {
    "Theorem 1 (soundness)": _Program.soundness,
    "Theorem 2 (completeness)": _Program.completeness,
    "Lemma ongoing (r ~ status 0)": _Program.ongoing_lemma,
    "Lemma returned (s ~ status R)": _Program.returned_lemma,
    "Corollary 1 (regularity)": _Program.regularity,
}


def _check_theorems(
    names: Sequence[str],
    max_program_size: int,
    max_trace_length: int,
    programs: Iterable[Program],
    max_counterexamples: int,
) -> list[TheoremReport]:
    """Run the named checks over one pass of ``programs``.

    Each report reads as if its check ran alone: it counts the programs
    up to the one that gave its ``max_counterexamples``-th
    counterexample, and a stopped check skips the programs after it.
    """
    for name in names:
        if name not in _CHECKS:
            raise KeyError(f"unknown theorem {name!r}; choose from {sorted(_CHECKS)}")
    reports = [
        TheoremReport(
            name=name,
            max_program_size=max_program_size,
            max_trace_length=max_trace_length,
        )
        for name in names
    ]
    running = [(report, _CHECKS[report.name]) for report in reports]
    for program in programs:
        if not running:
            break
        shared = _Program(program, max_trace_length)
        for entry in list(running):
            report, check = entry
            report.programs_checked += 1
            if not check(shared):
                report.counterexamples.append(format_program(program))
                if len(report.counterexamples) >= max_counterexamples:
                    running.remove(entry)
    return reports


def check_theorem(
    name: str,
    max_program_size: int = 4,
    max_trace_length: int = 6,
    alphabet: Sequence[str] = ("a", "b"),
    programs: Iterable[Program] | None = None,
    max_counterexamples: int = 3,
) -> TheoremReport:
    """Run one named check over a program space and collect a report."""
    space = programs if programs is not None else all_programs(max_program_size, alphabet)
    (report,) = _check_theorems(
        [name], max_program_size, max_trace_length, space, max_counterexamples
    )
    return report


def check_all_theorems(
    max_program_size: int = 4,
    max_trace_length: int = 6,
    alphabet: Sequence[str] = ("a", "b"),
) -> list[TheoremReport]:
    """Run every metatheory check over the same bounded-exhaustive space,
    enumerating it and each program's shared facts once."""
    return _check_theorems(
        list(_CHECKS),
        max_program_size,
        max_trace_length,
        all_programs(max_program_size, alphabet),
        max_counterexamples=3,
    )


def theorem_names() -> tuple[str, ...]:
    """The names accepted by :func:`check_theorem`."""
    return tuple(_CHECKS)
