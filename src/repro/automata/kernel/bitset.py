"""Bitset automata: int-state machines whose state *sets* are plain ints.

A :class:`BitNFA` stores, for every state ``s`` and symbol id ``a``, the
successor set as an int bit mask; epsilon structure is precomputed into
per-state closure masks and *closed* successor masks, so one macro-step
of the subset construction is just ``OR`` over set bits.  A
:class:`BitDFA` is a partial DFA with states ``0..n-1``, a flat
``delta`` array of length ``n*k`` (``-1`` = missing move = reject) and
an accepting bit mask.

Every automaton of the package is built straight into these shapes
(:class:`BitNFABuilder`, :mod:`repro.automata.kernel.thompson`,
``ClassSpec.bitnfa``, ``repro.ltlf.translate.formula_to_bitdfa``), and
the exporters, walks and metrics read a :class:`BitDFA` directly.
Symbol ids follow sorted symbol order (:class:`Alphabet`), so a walk
over ids ``0..k-1`` visits symbols alphabetically.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from repro.automata.kernel.alphabet import Alphabet


class BitNFA:
    """An NFA over interned symbols with bit-mask state sets.

    ``succ[s][a]`` is the raw successor mask for symbol id ``a``;
    ``eps[s]`` the direct epsilon-successor mask; ``closure[s]`` the
    full epsilon closure of ``{s}`` (always containing ``s``);
    ``closed_succ[s][a]`` the epsilon-closed successor mask — the only
    table the subset construction reads.  ``initial`` is already
    epsilon-closed.
    """

    __slots__ = (
        "alphabet",
        "n",
        "succ",
        "eps",
        "closure",
        "closed_succ",
        "initial",
        "accepting",
    )

    def __init__(
        self,
        alphabet: Alphabet,
        n: int,
        succ: list[list[int]],
        eps: list[int],
        initial: int,
        accepting: int,
    ):
        self.alphabet = alphabet
        self.n = n
        self.succ = succ
        self.eps = eps
        if not any(eps):
            # Epsilon-free fast path (every spec automaton, and any
            # projection that dropped nothing): closures are trivial and
            # the closed successor table IS the raw one.  Neither is
            # ever mutated, so sharing the list is safe.
            self.closure = [1 << s for s in range(n)]
            self.closed_succ = succ
            self.initial = initial
            self.accepting = accepting
            return
        self.closure = _closures(n, eps)
        closure = self.closure
        # States whose closure is more than themselves; masks disjoint
        # from this set need no folding at all.
        nontrivial = 0
        for s in range(n):
            if closure[s] != 1 << s:
                nontrivial |= 1 << s
        closed: list[list[int]] = []
        for row in succ:
            if not any(row):
                # Most states of a Thompson splice move on no symbol;
                # their row is shared, as in the fast path above.
                closed.append(row)
                continue
            closed_row = list(row)
            for symbol_id, mask in enumerate(row):
                if not mask & nontrivial:
                    continue
                folded = mask & ~nontrivial
                mask &= nontrivial
                while mask:
                    low = mask & -mask
                    folded |= closure[low.bit_length() - 1]
                    mask ^= low
                closed_row[symbol_id] = folded
            closed.append(closed_row)
        self.closed_succ = closed
        if initial & nontrivial:
            init = initial & ~nontrivial
            mask = initial & nontrivial
            while mask:
                low = mask & -mask
                init |= closure[low.bit_length() - 1]
                mask ^= low
            self.initial = init
        else:
            self.initial = initial
        self.accepting = accepting

    # ------------------------------------------------------------------

    def step(self, subset: int, symbol_id: int) -> int:
        """One macro-step: closed successor mask of ``subset``."""
        closed_succ = self.closed_succ
        moved = 0
        while subset:
            low = subset & -subset
            moved |= closed_succ[low.bit_length() - 1][symbol_id]
            subset ^= low
        return moved

    def accepts(self, word: Iterable[str]) -> bool:
        """Does the automaton accept ``word`` (a word of symbols)?"""
        get_id = self.alphabet.get
        current = self.initial
        for symbol in word:
            symbol_id = get_id(symbol)
            if symbol_id < 0:
                return False
            current = self.step(current, symbol_id)
            if not current:
                return False
        return bool(current & self.accepting)


class BitNFABuilder:
    """Assembles a :class:`BitNFA` state by state.

    States are the ints handed out by :meth:`add_state`; symbol moves
    are kept as triples and laid out per symbol id by :meth:`build`,
    once the alphabet is known.
    """

    __slots__ = ("eps", "moves")

    def __init__(self) -> None:
        self.eps: list[int] = []
        self.moves: list[tuple[int, str, int]] = []

    @property
    def n(self) -> int:
        """States added so far."""
        return len(self.eps)

    def add_state(self) -> int:
        self.eps.append(0)
        return len(self.eps) - 1

    def add_transition(self, source: int, symbol: str, target: int) -> None:
        self.moves.append((source, symbol, target))

    def add_epsilon(self, source: int, target: int) -> None:
        self.eps[source] |= 1 << target

    def symbols(self) -> set[str]:
        """The symbols the moves added so far read."""
        return {symbol for _source, symbol, _target in self.moves}

    def build(self, initial: int, accepting: int, alphabet: Alphabet) -> BitNFA:
        """The automaton with ``initial``/``accepting`` state masks over
        ``alphabet``, which must contain every symbol of the moves."""
        if (initial | accepting) >> len(self.eps):
            raise ValueError("initial or accepting mask names a state never added")
        id_of = alphabet.id_of
        k = len(alphabet)
        succ = [[0] * k for _ in self.eps]
        for source, symbol, target in self.moves:
            succ[source][id_of(symbol)] |= 1 << target
        return BitNFA(alphabet, len(self.eps), succ, self.eps, initial, accepting)


class BitDFA:
    """A partial DFA with int states and a flat transition array.

    ``delta[s * k + a]`` is the successor of state ``s`` on symbol id
    ``a``, or ``-1`` when the move is undefined (rejection).
    """

    __slots__ = ("alphabet", "n", "delta", "initial", "accepting")

    def __init__(
        self,
        alphabet: Alphabet,
        n: int,
        delta: list[int],
        initial: int,
        accepting: int,
    ):
        if len(delta) != n * len(alphabet):
            raise ValueError(
                f"delta length {len(delta)} != n*k = {n * len(alphabet)}"
            )
        if not 0 <= initial < max(n, 1):
            raise ValueError(f"initial state {initial} out of range")
        self.alphabet = alphabet
        self.n = n
        self.delta = delta
        self.initial = initial
        self.accepting = accepting

    def __eq__(self, other: object) -> bool:
        """Structural equality: same alphabet ids, states and moves."""
        if not isinstance(other, BitDFA):
            return NotImplemented
        return (self.alphabet, self.n, self.delta, self.initial, self.accepting) == (
            other.alphabet, other.n, other.delta, other.initial, other.accepting
        )

    __hash__ = None  # ``delta`` is a mutable list

    # ------------------------------------------------------------------

    def successor(self, state: int, symbol_id: int) -> int:
        """Successor state id, or ``-1`` when the move is undefined."""
        return self.delta[state * len(self.alphabet) + symbol_id]

    def accepts(self, word: Iterable[str]) -> bool:
        """Does the automaton accept ``word`` (a word of symbols)?"""
        get_id = self.alphabet.get
        k = len(self.alphabet)
        delta = self.delta
        state = self.initial
        for symbol in word:
            symbol_id = get_id(symbol)
            if symbol_id < 0:
                return False
            state = delta[state * k + symbol_id]
            if state < 0:
                return False
        return bool(self.accepting >> state & 1)

    def accepting_states(self) -> tuple[int, ...]:
        """Accepting state ids, ascending."""
        found = []
        mask = self.accepting
        while mask:
            low = mask & -mask
            found.append(low.bit_length() - 1)
            mask ^= low
        return tuple(found)

    def moves(self) -> Iterator[tuple[int, str, int]]:
        """Every defined move ``(source, symbol, target)``, by source
        state, then symbol id."""
        symbols = self.alphabet.symbols
        k = len(symbols)
        for index, target in enumerate(self.delta):
            if target >= 0:
                source, symbol_id = divmod(index, k)
                yield source, symbols[symbol_id], target

    def accepted_words(self, max_length: int) -> Iterator[tuple[str, ...]]:
        """All accepted words up to ``max_length``, in length-lex order.

        This enumerates *words*, not states, so the number of results
        can be exponential in the bound; keep bounds small.
        """
        symbols = self.alphabet.symbols
        k = len(symbols)
        delta = self.delta
        accepting = self.accepting
        queue: deque[tuple[tuple[str, ...], int]] = deque([((), self.initial)])
        while queue:
            word, state = queue.popleft()
            if accepting >> state & 1:
                yield word
            if len(word) >= max_length:
                continue
            base = state * k
            for symbol_id in range(k):
                target = delta[base + symbol_id]
                if target >= 0:
                    queue.append((word + (symbols[symbol_id],), target))


# ----------------------------------------------------------------------
# Closure computation
# ----------------------------------------------------------------------

def _closures(n: int, eps: list[int]) -> list[int]:
    """Epsilon closure masks: ``closure[s]`` ⊇ ``{s}`` ∪ eps-reachable.

    Semi-naive fixpoint: each round folds into ``closure[s]`` the
    closures of the members it has not folded yet, and only states
    whose closure grew take part in the next round.  A state that did
    not grow contains its members' epsilon successors, so its closure
    is complete.
    """
    closure = [(1 << s) | eps[s] for s in range(n)]
    folded = [1 << s for s in range(n)]
    active = [s for s in range(n) if eps[s]]
    while active:
        grown = []
        for s in active:
            current = closure[s]
            mask = current & ~folded[s]
            folded[s] = current
            while mask:
                low = mask & -mask
                current |= closure[low.bit_length() - 1]
                mask ^= low
            if current != closure[s]:
                closure[s] = current
                grown.append(s)
        active = grown
    return closure


# ----------------------------------------------------------------------
# Projection
# ----------------------------------------------------------------------

def project_bitnfa(bitnfa: BitNFA, keep: Iterable[str]) -> BitNFA:
    """Project onto a sub-vocabulary: dropped symbols become epsilon,
    so the result accepts exactly the projections of accepted words.
    The result's alphabet is exactly ``keep`` (canonically interned),
    including symbols the automaton never produces — those simply have
    no transitions, which is what lets a claim observe an event that a
    violated absence never emits.
    """
    kept = Alphabet(keep)
    old = bitnfa.alphabet
    n = bitnfa.n
    old_succ = bitnfa.succ
    eps = list(bitnfa.eps)
    k_new = len(kept)
    kept_ids = [kept.get(symbol) for symbol in old.symbols]
    succ: list[list[int]] = [[0] * k_new for _ in range(n)]
    for s in range(n):
        row = old_succ[s]
        new_row = succ[s]
        extra_eps = 0
        for old_id, new_id in enumerate(kept_ids):
            mask = row[old_id]
            if not mask:
                continue
            if new_id < 0:
                extra_eps |= mask
            else:
                new_row[new_id] |= mask
        if extra_eps:
            eps[s] |= extra_eps
    return BitNFA(kept, n, succ, eps, bitnfa.initial, bitnfa.accepting)
