"""Hopcroft partition refinement over bitset DFAs.

Blocks are int bit masks, so the split step (``inside = block ∩ movers``,
``outside = block \\ movers``) is two int operations; the
smaller-half worklist trick keeps the refinement ``O(n k log n)``.

The result is the canonical minimal *total* DFA of the input language:
completed with a dead sink first, refined, quotiented, trimmed to the
reachable part and renumbered in BFS order, so language-equal inputs
minimize to identical automata.
"""

from __future__ import annotations

from collections import deque

from repro.automata.kernel.bitset import BitDFA


def minimize_bitset(
    bitdfa: BitDFA, *, max_states: int | None = None, tracer=None
) -> BitDFA:
    """The minimal total DFA for ``bitdfa``'s language.

    ``max_states`` (``None`` = unlimited) bounds the *input* size:
    oversized inputs raise
    :class:`repro.core.limits.BudgetExceeded` up front.
    """
    if max_states is not None and max_states > 0 and bitdfa.n > max_states:
        from repro.core.limits import charge_states

        charge_states(bitdfa.n, max_states, "DFA minimization")

    k = len(bitdfa.alphabet)
    # Complete with a dead sink at index n (self-looping, non-accepting).
    n = bitdfa.n + 1
    dead = bitdfa.n
    delta: list[int] = [0] * (n * k)
    source_delta = bitdfa.delta
    for state in range(bitdfa.n):
        base = state * k
        for symbol_id in range(k):
            target = source_delta[base + symbol_id]
            delta[base + symbol_id] = dead if target < 0 else target
    for symbol_id in range(k):
        delta[dead * k + symbol_id] = dead

    accepting = bitdfa.accepting  # the dead sink is never accepting
    full = (1 << n) - 1

    # Per-symbol predecessor masks: pred[a][t] = sources moving to t on a.
    pred: list[list[int]] = [[0] * n for _ in range(k)]
    for state in range(n):
        base = state * k
        bit = 1 << state
        for symbol_id in range(k):
            pred[symbol_id][delta[base + symbol_id]] |= bit

    # Initial partition: accepting / non-accepting (skip empty blocks).
    blocks: list[int] = [
        mask for mask in (accepting, full & ~accepting) if mask
    ]
    block_of: list[int] = [0] * n
    for block_id, mask in enumerate(blocks):
        m = mask
        while m:
            low = m & -m
            block_of[low.bit_length() - 1] = block_id
            m ^= low

    worklist: deque[tuple[int, int]] = deque(
        (block_id, symbol_id)
        for block_id in range(len(blocks))
        for symbol_id in range(k)
    )
    while worklist:
        splitter_id, symbol_id = worklist.popleft()
        splitter = blocks[splitter_id]
        pred_a = pred[symbol_id]
        movers = 0
        m = splitter
        while m:
            low = m & -m
            movers |= pred_a[low.bit_length() - 1]
            m ^= low
        if not movers:
            continue
        # Blocks touched by the movers set.
        touched: dict[int, int] = {}
        m = movers
        while m:
            low = m & -m
            state = low.bit_length() - 1
            block_id = block_of[state]
            touched[block_id] = touched.get(block_id, 0) | low
            m ^= low
        for block_id, inside in touched.items():
            block = blocks[block_id]
            if inside == block:
                continue
            outside = block & ~inside
            # Keep the smaller part as the new block (Hopcroft's trick).
            if inside.bit_count() <= outside.bit_count():
                new_mask, old_mask = inside, outside
            else:
                new_mask, old_mask = outside, inside
            new_id = len(blocks)
            blocks[block_id] = old_mask
            blocks.append(new_mask)
            m2 = new_mask
            while m2:
                low = m2 & -m2
                block_of[low.bit_length() - 1] = new_id
                m2 ^= low
            for other_symbol in range(k):
                worklist.append((new_id, other_symbol))

    # Quotient: one representative per block; then trim + BFS renumber.
    representative = [mask & -mask for mask in blocks]  # lowest state
    quotient_delta: list[int] = [0] * (len(blocks) * k)
    for block_id, rep_bit in enumerate(representative):
        rep = rep_bit.bit_length() - 1
        base = block_id * k
        rep_base = rep * k
        for symbol_id in range(k):
            quotient_delta[base + symbol_id] = block_of[delta[rep_base + symbol_id]]
    initial_block = block_of[bitdfa.initial]

    order: dict[int, int] = {initial_block: 0}
    queue = deque([initial_block])
    while queue:
        block_id = queue.popleft()
        base = block_id * k
        for symbol_id in range(k):
            target = quotient_delta[base + symbol_id]
            if target not in order:
                order[target] = len(order)
                queue.append(target)
    minimal_n = len(order)
    minimal_delta = [0] * (minimal_n * k)
    minimal_accepting = 0
    for block_id, new_id in order.items():
        base = block_id * k
        new_base = new_id * k
        for symbol_id in range(k):
            minimal_delta[new_base + symbol_id] = order[
                quotient_delta[base + symbol_id]
            ]
        if blocks[block_id] & accepting:
            minimal_accepting |= 1 << new_id
    minimal = BitDFA(
        bitdfa.alphabet, minimal_n, minimal_delta, 0, minimal_accepting
    )
    if tracer is not None and tracer.enabled:
        tracer.annotate(
            input_states=bitdfa.n, minimal_states=minimal_n, kernel="bitset"
        )
    return minimal
