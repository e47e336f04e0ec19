"""Bitset subset construction: BitNFA → BitDFA.

States are discovered breadth-first (sorted symbols, FIFO subsets) and
numbered in that order; the empty subset is not a state, so the result
is partial.  A subset is a single int, so the visited check is an
int-keyed dict lookup.
"""

from __future__ import annotations

from collections import deque
from operator import or_

from repro.automata.kernel.bitset import BitDFA, BitNFA

#: How many subset expansions happen between deadline checks; keeps the
#: clock out of the hot loop while bounding overshoot.
_DEADLINE_STRIDE = 256


def determinize_bitset(
    bitnfa: BitNFA,
    *,
    max_states: int | None = None,
    deadline: float | None = None,
    tracer=None,
) -> BitDFA:
    """Determinize ``bitnfa`` by the subset construction.

    ``max_states=None`` applies the default cap
    (:data:`~repro.core.limits.DEFAULT_MAX_STATES`, read at call time),
    ``<= 0`` disables it; ``deadline`` is an absolute
    :func:`time.monotonic` timestamp checked every few expansions.
    Either trip raises :class:`repro.core.limits.BudgetExceeded`.  The
    produced DFA's state ids are BFS discovery order.
    """
    # Lazy import: repro.core.limits sits above the automata layer in
    # the import graph.
    from repro.core.limits import (
        DEFAULT_MAX_STATES,
        charge_states,
        check_deadline,
        effective_cap,
    )

    cap = effective_cap(max_states, DEFAULT_MAX_STATES)
    k = len(bitnfa.alphabet)
    closed_succ = bitnfa.closed_succ
    accepting_mask = bitnfa.accepting
    initial = bitnfa.initial

    # States that move on some symbol: the only members a fold reads
    # (in a Thompson splice most states only carry epsilon glue).
    live = 0
    for state, row in enumerate(closed_succ):
        if any(row):
            live |= 1 << state
    nowhere = [0] * k

    ids: dict[int, int] = {initial: 0}
    delta: list[int] = []
    accepting = 0
    queue: deque[int] = deque([initial])
    expansions = 0
    count = 1
    while queue:
        subset = queue.popleft()
        expansions += 1
        if expansions % _DEADLINE_STRIDE == 0:
            check_deadline(deadline, "subset construction")
        if subset & accepting_mask:
            accepting |= 1 << ids[subset]
        # Fold the live members' successor rows once per subset (not
        # once per symbol): a single live member — the common case —
        # has its row read directly.
        mask = subset & live
        if mask:
            low = mask & -mask
            successors = closed_succ[low.bit_length() - 1]
            mask ^= low
            while mask:
                low = mask & -mask
                successors = list(
                    map(or_, successors, closed_succ[low.bit_length() - 1])
                )
                mask ^= low
        else:
            successors = nowhere
        for symbol_id in range(k):
            successor = successors[symbol_id]
            if not successor:
                delta.append(-1)
                continue
            target = ids.get(successor)
            if target is None:
                target = count
                ids[successor] = target
                count += 1
                charge_states(count, cap, "subset construction")
                queue.append(successor)
            delta.append(target)
    if tracer is not None and tracer.enabled:
        tracer.annotate(dfa_states=count, expansions=expansions, kernel="bitset")
    return BitDFA(bitnfa.alphabet, count, delta, 0, accepting)
