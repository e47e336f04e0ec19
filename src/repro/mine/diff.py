"""Mined-vs-static differential: kernel inclusion both ways, witnesses.

The two models of one class — the DFA mined from monitored executions
and the statically extracted specification automaton — are compared by
the bitset kernel's fused inclusion search
(:func:`repro.automata.kernel.inclusion.bitset_difference_counterexample`):

* ``mined ⊆ static`` is the **soundness** direction.  A violation means
  a monitored execution (or a generalization stitched from monitored
  steps) escapes the static model: either the monitor failed to enforce
  the specification or the static extraction is unsound.  Either way it
  is a finding, witnessed by a length-lex-minimal trace.
* ``static ⊆ mined`` is the **completeness** direction.  A witness here
  is a lifecycle the static model claims and no execution exhibited —
  an under-covered corpus, dead code, or a statically feasible but
  dynamically impossible path (the over-approximation the paper
  expects).

Reports render deterministically: state counts are of the *minimized*
automata, witnesses are unique shortest-first words.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.kernel.alphabet import Alphabet
from repro.automata.kernel.bitset import BitDFA
from repro.automata.kernel.determinize import determinize_bitset
from repro.automata.kernel.inclusion import bitset_difference_counterexample
from repro.automata.kernel.minimize import minimize_bitset
from repro.core.spec import ClassSpec
from repro.mine.learn import MinedModel
from repro.obs.tracer import NULL_TRACER


@dataclass(frozen=True)
class DiffResult:
    """The two inclusion verdicts for one class."""

    class_name: str
    sound: bool
    complete: bool
    unsound_witness: tuple[str, ...] | None
    missed_witness: tuple[str, ...] | None
    mined_states: int
    static_states: int

    @property
    def equivalent(self) -> bool:
        return self.sound and self.complete

    @property
    def verdict(self) -> str:
        if self.equivalent:
            return "EQUIVALENT"
        if not self.sound:
            return "UNSOUND"
        return "INCOMPLETE"

    def format(self) -> str:
        lines = [
            f"mine diff {self.class_name}: mined={self.mined_states} states, "
            f"static={self.static_states} states -> {self.verdict}"
        ]
        if self.unsound_witness is not None:
            rendered = ", ".join(self.unsound_witness) or "(empty lifecycle)"
            lines.append(f"  unsound (mined accepts, static rejects): {rendered}")
        if self.missed_witness is not None:
            rendered = ", ".join(self.missed_witness) or "(empty lifecycle)"
            lines.append(f"  missed (static accepts, mined rejects): {rendered}")
        return "\n".join(lines)


def static_bitdfa(spec: ClassSpec) -> BitDFA:
    """The specification automaton as a kernel DFA."""
    return determinize_bitset(spec.bitnfa())


def diff_mined(
    mined: MinedModel, spec: ClassSpec, tracer=NULL_TRACER
) -> DiffResult:
    """Diff ``mined`` against the static model of ``spec``."""
    # One shared interner keeps symbol ids aligned across both machines;
    # the mined alphabet is the spec vocabulary by construction, but a
    # corpus loaded from JSON may carry a subset — the union covers both.
    alphabet = Alphabet(set(mined.dfa.alphabet) | set(spec.operation_names()))
    mined_bit = mined.bitdfa(alphabet)
    static_bit = determinize_bitset(spec.bitnfa(alphabet=alphabet))

    unsound = bitset_difference_counterexample(mined_bit, static_bit)
    missed = bitset_difference_counterexample(static_bit, mined_bit)
    result = DiffResult(
        class_name=mined.class_name or spec.name,
        sound=unsound is None,
        complete=missed is None,
        unsound_witness=unsound,
        missed_witness=missed,
        mined_states=minimize_bitset(mined_bit).n,
        static_states=minimize_bitset(static_bit).n,
    )
    if not result.equivalent:
        tracer.event(
            "mine-divergence",
            class_name=result.class_name,
            verdict=result.verdict,
        )
    return result
