"""LTLf → DFA translation by formula progression.

States are the (simplified) formulas reachable by :func:`progress`; a
state is accepting iff it satisfies the empty trace.  The construction
is exact for finite traces: the resulting DFA accepts a word iff the
word satisfies the formula under :mod:`repro.ltlf.semantics`.

One progression loop, :func:`formula_to_bitdfa`, emits a kernel
:class:`~repro.automata.kernel.BitDFA` (states numbered in BFS order)
for claim checking and the regex translation.

The paper delegates its claims to NuSMV by re-encoding into ω-regular
form and names direct regular-language approaches as future work — this
module *is* that approach (substitution recorded in DESIGN.md).
"""

from __future__ import annotations

from typing import Iterable

from repro.automata.kernel.alphabet import Alphabet
from repro.automata.kernel.bitset import BitDFA
from repro.core.limits import BudgetExceeded, check_deadline
from repro.ltlf.ast import Formula, atoms as formula_atoms, neg
from repro.ltlf.progression import accepts_empty, progress

#: Default cap on the states one progression explores.
MAX_PROGRESSION_STATES = 50_000

#: Deadline-check stride (progression steps between clock reads).
_DEADLINE_STRIDE = 256


class TranslationOverflowError(BudgetExceeded):
    """Progression explored more states than allowed: a state-budget
    trip, which the batch engine reports as ``ENGINE BUDGET``."""


def formula_to_bitdfa(
    formula: Formula,
    alphabet: Iterable[str] | None = None,
    max_states: int | None = None,
    deadline: float | None = None,
) -> BitDFA:
    """A total DFA over ``alphabet`` accepting exactly the models of
    ``formula``.

    ``alphabet`` must contain every atom of the formula; it defaults to
    exactly those atoms.  Events outside the atom set progress atoms to
    ``false`` like any other non-matching event, so enlarging the
    alphabet is how callers make the claim automaton observe the full
    event vocabulary of a class.

    ``max_states`` caps the explored formulas (default
    :data:`MAX_PROGRESSION_STATES`; :class:`TranslationOverflowError`
    past it) and ``deadline``, an absolute :func:`time.monotonic`
    timestamp, is checked every few steps
    (:class:`~repro.core.limits.BudgetExceeded`).
    """
    if alphabet is None:
        symbols = Alphabet(formula_atoms(formula))
    else:
        symbols = Alphabet(alphabet)
        missing = formula_atoms(formula) - set(symbols)
        if missing:
            raise ValueError(
                f"alphabet must contain the formula's atoms; missing {sorted(missing)}"
            )
    cap = MAX_PROGRESSION_STATES if max_states is None else max_states

    ids: dict[Formula, int] = {formula: 0}
    order: list[Formula] = [formula]
    delta: list[int] = []
    accepting = 0
    for index, state in enumerate(order):  # ``order`` grows: a BFS queue
        if index % _DEADLINE_STRIDE == 0:
            check_deadline(deadline, "LTLf progression")
        if accepts_empty(state):
            accepting |= 1 << index
        for symbol in symbols:
            successor = progress(state, symbol)
            target = ids.get(successor)
            if target is None:
                target = ids[successor] = len(order)
                order.append(successor)
                if len(order) > cap:
                    raise TranslationOverflowError(
                        "state budget exceeded in LTLf progression: "
                        f"explored {len(order)} states, budget is {cap}"
                    )
            delta.append(target)
    return BitDFA(symbols, len(order), delta, 0, accepting)


def negation_to_bitdfa(
    formula: Formula,
    alphabet: Iterable[str] | None = None,
    max_states: int | None = None,
    deadline: float | None = None,
) -> BitDFA:
    """DFA of ``!formula`` — the violation language used by claim checking."""
    return formula_to_bitdfa(neg(formula), alphabet, max_states, deadline)

