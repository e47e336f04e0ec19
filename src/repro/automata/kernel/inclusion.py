"""Fused on-the-fly product decision procedures.

No product automaton is materialized.  One search does it all: pairs ``(left state, right
state)`` are explored breadth-first in sorted-symbol order directly from
the two transition arrays, the lift (self-loop on foreign symbols) and
the completion (explicit dead side) are applied on the fly, and the
search **short-circuits on the first accepting pair** — which, because
BFS over sorted symbols discovers states along length-lex-minimal
paths, yields the length-lex-minimal counterexample word.

Dead-side encoding: the right automaton's sink is ``-1`` (reachable,
non-accepting, absorbing).  A dead *left* side can never satisfy either
acceptance condition (both require the left to accept), so those pairs
are pruned instead of explored — that is where the fused check wins its
asymptotics on clean inputs.
"""

from __future__ import annotations

from collections import deque

from repro.automata.kernel.bitset import BitDFA


def _search(
    left: BitDFA,
    right: BitDFA,
    *,
    right_accepts: bool,
    foreign: str,
) -> tuple[str, ...] | None:
    """Shortest word accepted by ``left`` whose right-side run ends in an
    accepting (``right_accepts=True``) or non-accepting (``False``)
    state; ``None`` when no such word exists.

    ``foreign`` fixes the right automaton's reading of symbols outside
    its alphabet: ``"reject"`` (move to the dead sink — the
    ``with_alphabet`` semantics) or ``"lift"`` (self-loop — the
    ``lift_alphabet`` semantics of the subsystem-usage check).
    """
    if foreign not in ("reject", "lift"):
        raise ValueError(f"foreign must be 'reject' or 'lift', got {foreign!r}")
    lift = foreign == "lift"
    k = len(left.alphabet)
    left_delta = left.delta
    left_accepting = left.accepting
    right_delta = right.delta
    right_accepting = right.accepting
    right_k = len(right.alphabet)
    right_n = right.n
    # left symbol id -> right symbol id (-1: foreign to the right side).
    right_alphabet = right.alphabet
    symbol_map = [right_alphabet.get(symbol) for symbol in left.alphabet.symbols]

    def is_goal(l_state: int, r_state: int) -> bool:
        if not left_accepting >> l_state & 1:
            return False
        r_ok = r_state >= 0 and bool(right_accepting >> r_state & 1)
        return r_ok == right_accepts

    start_l = left.initial
    start_r = right.initial
    if is_goal(start_l, start_r):
        return ()
    # Pair key: l * (right_n + 1) + (r + 1); r == -1 is the dead sink.
    stride = right_n + 1
    start = start_l * stride + (start_r + 1)
    parents: dict[int, tuple[int, int] | None] = {start: None}
    queue: deque[int] = deque([start])
    while queue:
        key = queue.popleft()
        l_state, r_plus = divmod(key, stride)
        r_state = r_plus - 1
        l_base = l_state * k
        r_base = r_state * right_k
        for symbol_id in range(k):
            l_next = left_delta[l_base + symbol_id]
            if l_next < 0:
                continue  # dead left side can never accept
            r_sym = symbol_map[symbol_id]
            if r_sym < 0:
                r_next = r_state if lift else -1
            elif r_state < 0:
                r_next = -1
            else:
                r_next = right_delta[r_base + r_sym]
            next_key = l_next * stride + (r_next + 1)
            if next_key in parents:
                continue
            parents[next_key] = (key, symbol_id)
            if is_goal(l_next, r_next):
                word: list[int] = []
                cursor = next_key
                while True:
                    entry = parents[cursor]
                    if entry is None:
                        break
                    cursor, used = entry
                    word.append(used)
                word.reverse()
                return left.alphabet.decode(word)
            queue.append(next_key)
    return None


def bitset_difference_counterexample(
    left: BitDFA, right: BitDFA, *, foreign: str = "reject"
) -> tuple[str, ...] | None:
    """Shortest word of ``L(left) \\ L(right)``, or ``None`` if included.

    With ``foreign="lift"`` the right automaton self-loops on symbols
    outside its alphabet (the inverse-projection reading used by the
    subsystem-usage check); with ``"reject"`` it rejects them (the
    reading over the joint alphabet, used to compare two specs).
    """
    return _search(left, right, right_accepts=False, foreign=foreign)


def bitset_intersection_counterexample(
    left: BitDFA, right: BitDFA
) -> tuple[str, ...] | None:
    """Shortest word of ``L(left) ∩ L(right)``, or ``None`` if empty."""
    return _search(left, right, right_accepts=True, foreign="reject")


def bitset_included(left: BitDFA, right: BitDFA) -> bool:
    """Is ``L(left) ⊆ L(right)``?"""
    return bitset_difference_counterexample(left, right) is None


def bitset_equivalent(left: BitDFA, right: BitDFA) -> bool:
    """Do the two DFAs accept the same language?"""
    return (
        bitset_difference_counterexample(left, right) is None
        and bitset_difference_counterexample(right, left) is None
    )
