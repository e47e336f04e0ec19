"""Formula progression: the one-step derivative of an LTLf formula.

``progress(φ, σ)`` computes a formula ``φ'`` with the defining property

    ``σ · w ⊨ φ``   iff   ``w ⊨ φ'``

and ``accepts_empty(φ)`` decides ``ε ⊨ φ``.  Together they turn the set
of (simplified) formulas reachable by progression into a DFA — the
construction in :mod:`repro.ltlf.translate`.  Progression is standard
(Bacchus–Kabanza), adapted to event traces where exactly one atom is
true per position.

Nothing here outlives a call: a process-wide memo would grow with every
new claim vocabulary for the life of a daemon.  The translation visits
each (state, event) pair once and hands :func:`progress_memoized` a
memo of its own, which it drops when the DFA is built.
"""

from __future__ import annotations

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
    conj,
    disj,
    neg,
)


def progress(formula: Formula, event: str) -> Formula:
    """The residual obligation after observing ``event``."""
    return progress_memoized(formula, event, {})


def progress_memoized(
    formula: Formula, event: str, memo: dict[Formula, Formula]
) -> Formula:
    """:func:`progress` through a caller-owned memo of ``event``'s
    residuals.

    The states of one translation share subformulas (every residual of
    ``G φ`` still holds ``G φ``), so
    :func:`~repro.ltlf.translate.formula_to_bitdfa` keeps one memo per
    symbol for the length of the call and drops it after.
    """
    found = memo.get(formula)
    if found is None:
        found = memo[formula] = _progress_step(formula, event, memo)
    return found


def _progress_step(
    formula: Formula, event: str, memo: dict[Formula, Formula]
) -> Formula:
    """One progression rule; subformulas progress through ``memo``."""
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Atom):
        return TRUE if formula.name == event else FALSE
    if isinstance(formula, Not):
        return neg(progress_memoized(formula.operand, event, memo))
    if isinstance(formula, And):
        return conj(progress_memoized(op, event, memo) for op in formula.operands)
    if isinstance(formula, Or):
        return disj(progress_memoized(op, event, memo) for op in formula.operands)
    if isinstance(formula, (Next, WeakNext)):
        # Both nexts progress to their operand: once an event has been
        # consumed a next position certainly existed.
        return formula.operand
    if isinstance(formula, Eventually):
        return disj([progress_memoized(formula.operand, event, memo), formula])
    if isinstance(formula, Globally):
        return conj([progress_memoized(formula.operand, event, memo), formula])
    if isinstance(formula, (Until, WeakUntil)):
        return disj(
            [
                progress_memoized(formula.right, event, memo),
                conj([progress_memoized(formula.left, event, memo), formula]),
            ]
        )
    if isinstance(formula, Release):
        return conj(
            [
                progress_memoized(formula.right, event, memo),
                disj([progress_memoized(formula.left, event, memo), formula]),
            ]
        )
    raise TypeError(f"not a Formula: {formula!r}")


def accepts_empty(formula: Formula) -> bool:
    """Does the empty trace satisfy ``formula``?

    Mirrors the empty-suffix conventions of
    :mod:`repro.ltlf.semantics`: ``G``/``W``/``R``/``X[w]`` are true,
    atoms/``X``/``F``/``U`` are false.
    """
    if isinstance(formula, Top):
        return True
    if isinstance(formula, (Bottom, Atom, Next, Eventually, Until)):
        return False
    if isinstance(formula, (WeakNext, Globally, WeakUntil, Release)):
        return True
    if isinstance(formula, Not):
        return not accepts_empty(formula.operand)
    if isinstance(formula, And):
        return all(accepts_empty(op) for op in formula.operands)
    if isinstance(formula, Or):
        return any(accepts_empty(op) for op in formula.operands)
    raise TypeError(f"not a Formula: {formula!r}")


def progress_trace(formula: Formula, trace: tuple[str, ...] | list[str]) -> Formula:
    """Progress through a whole trace (left to right)."""
    current = formula
    for event in trace:
        current = progress(current, event)
        if isinstance(current, (Top, Bottom)):
            break
    return current


def satisfies_by_progression(formula: Formula, trace: tuple[str, ...] | list[str]) -> bool:
    """Decide ``trace ⊨ formula`` via progression (tested against
    :func:`repro.ltlf.semantics.evaluate`)."""
    return accepts_empty(progress_trace(formula, trace))
