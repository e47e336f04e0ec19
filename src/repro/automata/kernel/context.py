"""Per-check memoization: one :class:`KernelCheck` per class check.

A class check asks about the same automata many times — the vacuity
screen re-asks about the projection that the claim check already
built, every strengthening mutant re-translates over the same observed
alphabet, and each subsystem field needs its spec's DFA.  A
``KernelCheck`` owns the class's :class:`~repro.automata.kernel.bitset.BitNFA`
and memoizes every derived DFA for the lifetime of one
``check_parsed_class`` call.  Every machine is built straight into
bitsets — spec automata by ``ClassSpec.bitnfa``, negated claims by
LTLf progression.  Memoization is a pure cache — every entry is a deterministic function
of the behavior NFA and the key — so verdicts are unchanged; only the
wall clock moves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.automata.kernel.bitset import BitDFA, BitNFA, project_bitnfa
from repro.automata.kernel.determinize import determinize_bitset
from repro.automata.kernel.inclusion import (
    bitset_difference_counterexample,
    bitset_intersection_counterexample,
)

if TYPE_CHECKING:
    from repro.core.spec import ClassSpec
    from repro.ltlf.ast import Formula


class KernelCheck:
    """Memoized bitset automata for one class check.

    ``max_states`` and ``deadline`` carry the check's resource budget
    into the behavior determinization (the step the budget guards);
    derived machines (spec DFAs, projections, negated-formula DFAs) run
    under their sites' default caps.  The deadline also bounds the LTLf
    progression.
    """

    def __init__(
        self,
        behavior: BitNFA,
        *,
        max_states: int | None = None,
        deadline: float | None = None,
        tracer=None,
    ):
        self.behavior = behavior
        self.max_states = max_states
        self.deadline = deadline
        self.tracer = tracer
        self._behavior_dfa: BitDFA | None = None
        self._spec_dfas: dict[tuple[str, str], BitDFA] = {}
        self._projections: dict[frozenset[str], BitDFA] = {}
        self._negations: dict[tuple["Formula", frozenset[str]], BitDFA] = {}

    # ------------------------------------------------------------------

    def behavior_dfa(self) -> BitDFA:
        """The determinized behavior, under the check's budget."""
        if self._behavior_dfa is None:
            self._behavior_dfa = determinize_bitset(
                self.behavior,
                max_states=self.max_states,
                deadline=self.deadline,
                tracer=self.tracer,
            )
        return self._behavior_dfa

    def spec_dfa(self, spec: "ClassSpec", prefix: str = "") -> BitDFA:
        """Determinized spec automaton for ``spec`` scoped by ``prefix``."""
        key = (spec.name, prefix)
        found = self._spec_dfas.get(key)
        if found is None:
            found = determinize_bitset(spec.bitnfa(prefix))
            self._spec_dfas[key] = found
        return found

    def projected_dfa(self, observed: frozenset[str]) -> BitDFA:
        """The behavior projected onto ``observed``, determinized.

        This is the machine both the claim check and the vacuity screen
        need per formula — memoizing it is the single biggest saving of
        a check (unmemoized, a holding claim would rebuild it three
        times: claims, the vacuity hold-check, and the mutants).
        """
        found = self._projections.get(observed)
        if found is None:
            found = determinize_bitset(
                project_bitnfa(self.behavior, observed)
            )
            self._projections[observed] = found
        return found

    def negation_dfa(self, formula: "Formula", observed: frozenset[str]) -> BitDFA:
        """The DFA of ``¬formula`` over ``observed``, by progression
        (:func:`repro.ltlf.translate.negation_to_bitdfa`) under the
        check's deadline.  Memoized because the vacuity hold-check
        re-asks about the very formula the claim check just translated.
        """
        key = (formula, observed)
        found = self._negations.get(key)
        if found is None:
            # Lazy: repro.ltlf sits above the automata layer.
            from repro.ltlf.translate import negation_to_bitdfa

            found = negation_to_bitdfa(
                formula, alphabet=observed, deadline=self.deadline
            )
            self._negations[key] = found
        return found

    # ------------------------------------------------------------------

    def usage_counterexample(
        self, spec: "ClassSpec", prefix: str
    ) -> tuple[str, ...] | None:
        """Shortest behavior trace whose ``prefix`` events are not a
        complete lifecycle of ``spec``, or ``None`` if every trace is.

        The fused product of the behavior DFA with the prefixed spec DFA
        under the ``lift`` reading (the spec ignores events outside its
        alphabet); no difference automaton is materialized.
        """
        return bitset_difference_counterexample(
            self.behavior_dfa(), self.spec_dfa(spec, prefix), foreign="lift"
        )

    def claim_counterexample(
        self, formula: "Formula", observed: frozenset[str]
    ) -> tuple[str, ...] | None:
        """Shortest trace violating ``formula``, or ``None`` if it holds.

        The fused product of the projected behavior with the negated
        formula (both alphabets are ``observed``, so no alignment step
        is needed).
        """
        return bitset_intersection_counterexample(
            self.projected_dfa(observed), self.negation_dfa(formula, observed)
        )

    def holds_on(self, formula: "Formula", observed: frozenset[str]) -> bool:
        """Does ``formula`` hold on every observed trace of the class?"""
        return self.claim_counterexample(formula, observed) is None
