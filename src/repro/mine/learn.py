"""Passive automaton learning: evidence-gated RPNI over the PTA.

Classic RPNI folds prefix-tree states together in canonical order,
keeping a merge when it does not conflate an accepting sample with a
rejecting one.  Our samples carry much sharper labels than +/- words:
the monitor told the collector, at *every* visited prefix, exactly which
operations were allowed next and whether the lifecycle could finalize.
A merge is therefore gated on **evidence agreement**:

* two states merge only if their observed ``allowed`` sets are equal
  (both known) and their ``final`` labels agree (both known);
* the gate applies recursively down the folded subtrees (the standard
  RPNI cascade), so a merge that would conflate two prefixes with
  *different observed futures* is rejected wholesale.

Soundness does not depend on the gates: specification automata are
local (the state after any word is determined by its last event — every
event moves to the full exit set of its operation), every PTA edge is a
monitored, spec-allowed step, and every accepting PTA node was verified
finalizable.  Any path through any quotient of the PTA is therefore a
concatenation of spec-allowed steps ending in a spec-accepting state —
``L(mined) ⊆ L(spec)`` holds for *every* merge sequence (docs/mining.md
gives the argument in full).  The gates buy precision: with them, a
transition-covering, evidence-carrying corpus makes the learner recover
the specification automaton exactly.

The merge order (blue states in BFS-lexicographic order, red candidates
in promotion order) is fixed, so mining is deterministic: same corpus,
same automaton.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.kernel.alphabet import Alphabet
from repro.automata.kernel.bitset import BitDFA
from repro.mine.corpus import TraceCorpus
from repro.mine.pta import PrefixTreeAcceptor
from repro.obs.tracer import NULL_TRACER


@dataclass
class MineStats:
    """How much work the learner did, and how much it compressed."""

    pta_states: int = 0
    mined_states: int = 0
    merges_tested: int = 0
    merges_accepted: int = 0
    promotions: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "pta_states": self.pta_states,
            "mined_states": self.mined_states,
            "merges_tested": self.merges_tested,
            "merges_accepted": self.merges_accepted,
            "promotions": self.promotions,
        }


@dataclass
class MinedModel:
    """The learner's output: a DFA shaped like a class specification.

    ``dfa`` is a partial kernel DFA (missing moves reject), states are
    dense ints in BFS discovery order, and the alphabet is the full
    operation vocabulary of the mined class — aligned with
    ``spec.dfa()`` so the differential engine can run kernel inclusion
    directly.
    """

    class_name: str
    dfa: BitDFA
    stats: MineStats

    def accepts(self, word) -> bool:
        return self.dfa.accepts(word)

    def bitdfa(self, alphabet: Alphabet) -> BitDFA:
        """:attr:`dfa` over ``alphabet`` (a superset of its own); its
        states keep their numbers."""
        own = self.dfa
        if alphabet == own.alphabet:
            return own
        k, own_k = len(alphabet), len(own.alphabet)
        ids = [alphabet.id_of(symbol) for symbol in own.alphabet]
        delta = [-1] * (own.n * k)
        for slot, target in enumerate(own.delta):
            state, own_id = divmod(slot, own_k)
            delta[state * k + ids[own_id]] = target
        return BitDFA(alphabet, own.n, delta, own.initial, own.accepting)


class _Quotient:
    """Mutable merged view of the PTA during learning."""

    __slots__ = ("children", "allowed", "final")

    def __init__(self, pta: PrefixTreeAcceptor):
        self.children = [dict(node.children) for node in pta.nodes]
        self.allowed = [node.allowed for node in pta.nodes]
        self.final = [node.final for node in pta.nodes]

    def compatible(self, left: int, right: int) -> bool:
        la, ra = self.allowed[left], self.allowed[right]
        if la is not None and ra is not None and la != ra:
            return False
        lf, rf = self.final[left], self.final[right]
        if lf is not None and rf is not None and lf != rf:
            return False
        return True

    def absorb(self, target: int, source: int) -> None:
        """Merge ``source``'s evidence into ``target``."""
        sa = self.allowed[source]
        if sa is not None:
            ta = self.allowed[target]
            self.allowed[target] = sa if ta is None else ta | sa
        sf = self.final[source]
        if sf is not None:
            tf = self.final[target]
            self.final[target] = sf if tf is None else tf or sf

    def fold(self, red: int, blue: int) -> bool:
        """Try merging ``blue`` into ``red``, cascading down shared symbols.

        On an evidence conflict anywhere in the cascade the whole merge
        is rolled back from an undo log and ``False`` is returned; the
        source (blue) side is a tree and only ever *read*, so the log
        covers exactly the target-side mutations.
        """
        log: list[tuple] = []
        stack = [(red, blue)]
        ok = True
        while stack:
            target, source = stack.pop()
            if not self.compatible(target, source):
                ok = False
                break
            log.append(("allowed", target, self.allowed[target]))
            log.append(("final", target, self.final[target]))
            self.absorb(target, source)
            for symbol in sorted(self.children[source]):
                source_child = self.children[source][symbol]
                target_child = self.children[target].get(symbol)
                if target_child is None:
                    log.append(("edge", target, symbol))
                    self.children[target][symbol] = source_child
                else:
                    stack.append((target_child, source_child))
        if ok:
            return True
        for entry in reversed(log):
            kind, state, payload = entry
            if kind == "allowed":
                self.allowed[state] = payload
            elif kind == "final":
                self.final[state] = payload
            else:
                del self.children[state][payload]
        return False


def learn(
    pta: PrefixTreeAcceptor,
    class_name: str = "",
    tracer=NULL_TRACER,
) -> MinedModel:
    """Run evidence-gated RPNI over ``pta`` and extract the mined DFA."""
    stats = MineStats(pta_states=len(pta))
    quotient = _Quotient(pta)
    redirect: dict[int, int] = {}

    def resolve(state: int) -> int:
        while state in redirect:
            state = redirect[state]
        return state

    red_order: list[int] = [0]
    red_set = {0}
    while True:
        # The first blue state: scan reds in promotion order, their
        # outgoing edges in symbol order — BFS-lexicographic, the RPNI
        # canonical order.
        blue = None
        for red in red_order:
            for symbol in sorted(quotient.children[red]):
                target = resolve(quotient.children[red][symbol])
                quotient.children[red][symbol] = target
                if target not in red_set:
                    blue = target
                    break
            if blue is not None:
                break
        if blue is None:
            break
        merged = False
        for red in red_order:
            stats.merges_tested += 1
            if not quotient.fold(red, blue):
                continue
            redirect[blue] = red
            stats.merges_accepted += 1
            merged = True
            break
        if not merged:
            red_order.append(blue)
            red_set.add(blue)
            stats.promotions += 1

    dfa = _extract(quotient, pta.alphabet, resolve)
    stats.mined_states = dfa.n
    tracer.event(
        "mine-learned",
        class_name=class_name,
        pta_states=stats.pta_states,
        mined_states=stats.mined_states,
        merges=stats.merges_accepted,
    )
    return MinedModel(class_name=class_name, dfa=dfa, stats=stats)


def _extract(quotient: _Quotient, alphabet, resolve) -> BitDFA:
    """The quotient as a dense, BFS-renumbered kernel DFA over
    ``alphabet`` plus any symbol the corpus words read beyond it."""
    symbols = Alphabet([*alphabet, *(s for children in quotient.children for s in children)])
    k = len(symbols)
    ids: dict[int, int] = {resolve(0): 0}
    order: list[int] = [resolve(0)]
    delta: list[int] = []
    accepting = 0
    for state in order:  # ``order`` grows: a BFS queue
        row = [-1] * k
        for symbol in sorted(quotient.children[state]):
            target = resolve(quotient.children[state][symbol])
            if target not in ids:
                ids[target] = len(order)
                order.append(target)
            row[symbols.id_of(symbol)] = ids[target]
        delta.extend(row)
        if quotient.final[state]:
            accepting |= 1 << ids[state]
    return BitDFA(symbols, len(order), delta, 0, accepting)


def mine_corpus(
    corpus: TraceCorpus, tracer=NULL_TRACER
) -> MinedModel:
    """PTA construction + learning in one call."""
    pta = PrefixTreeAcceptor.from_corpus(corpus)
    return learn(pta, class_name=corpus.class_name, tracer=tracer)
