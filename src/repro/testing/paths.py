"""Path generation over specification automata.

Model-based testing needs *words with shape*: for every transition of
the (determinized, trimmed) specification automaton, an accepted word
that exercises it.  This module computes

* :func:`shortest_prefixes` — a BFS tree of shortest words reaching each
  state,
* :func:`shortest_suffixes` — shortest words completing each state to
  acceptance (backward BFS),
* :func:`transition_cover` — one accepted word per transition
  (prefix · symbol · suffix), deduplicated and deterministic.

All words are *accepted* by the automaton, so for a class specification
they are complete, valid lifecycles.
"""

from __future__ import annotations

from collections import deque

from repro.automata.kernel import BitDFA


def shortest_prefixes(dfa: BitDFA) -> dict[int, tuple[str, ...]]:
    """Shortest word from the initial state to each reachable state."""
    symbols = dfa.alphabet.symbols
    k = len(symbols)
    delta = dfa.delta
    prefixes: dict[int, tuple[str, ...]] = {dfa.initial: ()}
    queue = deque([dfa.initial])
    while queue:
        state = queue.popleft()
        base = state * k
        for symbol_id in range(k):
            successor = delta[base + symbol_id]
            if successor >= 0 and successor not in prefixes:
                prefixes[successor] = prefixes[state] + (symbols[symbol_id],)
                queue.append(successor)
    return prefixes


def shortest_suffixes(dfa: BitDFA) -> dict[int, tuple[str, ...]]:
    """Shortest word from each state to *some* accepting state.

    States that cannot reach acceptance (dead states) are absent from
    the result.  Computed by backward BFS over the reversed automaton;
    ties go to the source whose id sorts first as a string (``10``
    before ``2``).
    """
    # Build the reverse adjacency once.
    reverse: dict[int, list[tuple[int, str]]] = {}
    for source, symbol, target in dfa.moves():
        reverse.setdefault(target, []).append((source, symbol))

    accepting = dfa.accepting_states()
    suffixes: dict[int, tuple[str, ...]] = {state: () for state in accepting}
    queue = deque(sorted(accepting, key=str))
    while queue:
        state = queue.popleft()
        for source, symbol in sorted(
            reverse.get(state, ()), key=lambda pair: (str(pair[0]), pair[1])
        ):
            if source not in suffixes:
                suffixes[source] = (symbol,) + suffixes[state]
                queue.append(source)
    return suffixes


def transition_cover(dfa: BitDFA) -> list[tuple[str, ...]]:
    """One accepted word per *live* transition.

    A transition ``(s, a) -> t`` is live when ``s`` is reachable and
    ``t`` co-reaches acceptance; the covering word is
    ``prefix(s) · a · suffix(t)``.  Duplicates (one word often covers
    several transitions) are removed; order is deterministic (sorted by
    word), so suites are stable across runs.
    """
    prefixes = shortest_prefixes(dfa)
    suffixes = shortest_suffixes(dfa)
    words: set[tuple[str, ...]] = set()
    for source, symbol, target in dfa.moves():
        if source not in prefixes or target not in suffixes:
            continue
        word = prefixes[source] + (symbol,) + suffixes[target]
        words.add(word)
    # The empty lifecycle is part of every spec language (never-used
    # instance); include it when accepted so suites exercise finalize-
    # without-calls too.
    if dfa.accepting >> dfa.initial & 1:
        words.add(())
    for word in words:
        assert dfa.accepts(word), word
    return sorted(words, key=lambda w: (len(w), w))


def state_cover(dfa: BitDFA) -> list[tuple[str, ...]]:
    """One accepted word visiting each live state (smaller than a
    transition cover; useful as a smoke suite)."""
    prefixes = shortest_prefixes(dfa)
    suffixes = shortest_suffixes(dfa)
    words = {
        prefixes[state] + suffixes[state]
        for state in prefixes
        if state in suffixes
    }
    return sorted(words, key=lambda w: (len(w), w))
