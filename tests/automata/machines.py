"""Hand-built kernel automata for the automata tests.

Int states are their own ids; other names are numbered in order of
first mention (initial states first), so a test can write its machine
as a transition list.  ``reference_accepts`` reads the same transition list as a
set-based NFA simulator — an independent witness of what the kernel
automaton must accept.
"""

from itertools import product

from repro.automata.kernel import Alphabet, BitDFA, BitNFABuilder


def mask(states) -> int:
    bits = 0
    for state in states:
        bits |= 1 << state
    return bits


def make_nfa(transitions, *, initial, accepting, alphabet=(), epsilon=()):
    """A :class:`BitNFA` over the moves' symbols plus ``alphabet``."""
    names = [*initial]
    for source, _symbol, target in transitions:
        names += [source, target]
    for source, target in epsilon:
        names += [source, target]
    names += accepting
    if all(isinstance(name, int) for name in names):
        index = {name: name for name in range(max(names, default=0) + 1)}
    else:
        index = {name: i for i, name in enumerate(dict.fromkeys(names))}
    builder = BitNFABuilder()
    for _ in index:
        builder.add_state()
    for source, symbol, target in transitions:
        builder.add_transition(index[source], symbol, index[target])
    for source, target in epsilon:
        builder.add_epsilon(index[source], index[target])
    symbols = builder.symbols().union(alphabet)
    return builder.build(
        mask(index[name] for name in initial),
        mask(index[name] for name in accepting),
        Alphabet(symbols),
    )


def make_dfa(transitions, *, n, accepting, alphabet, initial=0) -> BitDFA:
    """A :class:`BitDFA` on states ``0..n-1`` (missing moves reject)."""
    symbols = Alphabet(alphabet)
    k = len(symbols)
    delta = [-1] * (n * k)
    for source, symbol, target in transitions:
        delta[source * k + symbols.id_of(symbol)] = target
    return BitDFA(symbols, n, delta, initial, mask(accepting))


def word_dfa(word, alphabet) -> BitDFA:
    """The DFA accepting exactly ``word``."""
    moves = [(i, symbol, i + 1) for i, symbol in enumerate(word)]
    return make_dfa(moves, n=len(word) + 1, accepting=[len(word)], alphabet=alphabet)


def reference_accepts(transitions, word, *, initial, accepting, epsilon=()) -> bool:
    """Set-based NFA simulation of a transition list."""

    def close(states):
        closed = set(states)
        stack = list(closed)
        while stack:
            source = stack.pop()
            for origin, target in epsilon:
                if origin == source and target not in closed:
                    closed.add(target)
                    stack.append(target)
        return closed

    current = close(initial)
    for symbol in word:
        current = close(t for s, a, t in transitions if s in current and a == symbol)
    return bool(current & set(accepting))


def is_bfs_numbered(dfa) -> bool:
    """Do state ids follow BFS discovery order over symbol ids?"""
    k = len(dfa.alphabet)
    order, seen = [dfa.initial], {dfa.initial}
    for state in order:
        for target in dfa.delta[state * k : state * k + k]:
            if target >= 0 and target not in seen:
                seen.add(target)
                order.append(target)
    return order == list(range(dfa.n))


def words_up_to(alphabet, length):
    """Every word over ``alphabet`` up to ``length``, in length-lex order."""
    for size in range(length + 1):
        yield from product(sorted(alphabet), repeat=size)


def spec_table_accepts(spec, word, prefix="") -> bool:
    """Is ``word`` a complete lifecycle of ``spec`` (events scoped by
    ``prefix``) under the runtime monitor's reading of its
    :class:`~repro.core.spec.SpecTable`?  Each call must be allowed by
    some current state and moves to every exit of the called operation.
    An independent witness for spec automata; it agrees with them on
    specs that declare each operation name once."""
    from repro.core.spec import START_BIT

    table = spec.table
    states = START_BIT
    for event in word:
        name = event[len(prefix) :]
        if not event.startswith(prefix) or name not in table.allowed(states):
            return False
        states = table.exits[name]
    return bool(states & table.accepting)
