"""State elimination: BitDFA → regular expression (the GNFA algorithm).

The other direction of the regularity story: any automaton the kernel
builds can be turned back into a regex, which closes the round trip
``regex → NFA → DFA → regex`` of Corollary 1
(:func:`repro.lang.metatheory.check_regularity`) and turns a claim's
progression DFA into a regex (:mod:`repro.ltlf.to_regex`).
"""

from __future__ import annotations

from collections import deque

from repro.automata.kernel.bitset import BitDFA
from repro.regex.ast import EMPTY, EPSILON, Regex, concat, star, symbol, union

#: The generalized automaton's fresh start and accept nodes (never
#: eliminated; real states are ``0..n-1``).
_START = -1
_ACCEPT = -2


def bitdfa_to_regex(dfa: BitDFA) -> Regex:
    """A regular expression for the language of ``dfa``.

    Builds a generalized NFA with a single fresh start and accept node
    over the reachable states and eliminates those states one by one,
    rewriting the edge labels into regexes.  States go in ``str`` order
    of their ids (``10`` before ``2``), which keeps the output
    deterministic — not minimal: regex minimality is needed nowhere,
    language equality is what the tests check.
    """
    k = len(dfa.alphabet)
    reachable = {dfa.initial}
    queue = deque(reachable)
    while queue:
        base = queue.popleft() * k
        for target in dfa.delta[base : base + k]:
            if target >= 0 and target not in reachable:
                reachable.add(target)
                queue.append(target)
    accepting = [s for s in dfa.accepting_states() if s in reachable]
    if not accepting:
        return EMPTY

    # edges[(p, q)] = regex labelling the edge p -> q.
    edges: dict[tuple[int, int], Regex] = {}

    def add_edge(source: int, target: int, label: Regex) -> None:
        key = (source, target)
        edges[key] = union(edges.get(key, EMPTY), label)

    add_edge(_START, dfa.initial, EPSILON)
    for state in accepting:
        add_edge(state, _ACCEPT, EPSILON)
    for source, move_symbol, target in dfa.moves():
        if source in reachable:
            add_edge(source, target, symbol(move_symbol))

    for state in sorted(reachable, key=str):
        loop_star = star(edges.pop((state, state), EMPTY))
        incoming = [
            (source, label)
            for (source, target), label in edges.items()
            if target == state
        ]
        outgoing = [
            (target, label)
            for (source, target), label in edges.items()
            if source == state
        ]
        for source, _label in incoming:
            del edges[(source, state)]
        for target, _label in outgoing:
            del edges[(state, target)]
        for source, in_label in incoming:
            for target, out_label in outgoing:
                add_edge(source, target, concat(in_label, concat(loop_star, out_label)))

    return edges.get((_START, _ACCEPT), EMPTY)
