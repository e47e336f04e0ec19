"""Class specifications and their automata.

A class specification is the annotation-level view of a ``@sys`` class:
its operations, which are initial/final, and each operation's exit
points with their declared next-method sets.  Read as an automaton (the
dependency graph of §3.1 with the entry→exit arcs labelled by the
operation name), the specification denotes the *language of complete
lifecycles* of an instance:

* the automaton starts in a fresh ``start`` state;
* invoking operation ``m`` (allowed when ``m`` is initial, or listed in
  the current exit's next-method set) emits event ``m`` and moves to one
  of ``m``'s exit states (nondeterministically — which exit is taken is
  resolved by the callee's internal behavior);
* a lifecycle may end at any exit of a ``final`` operation, or before it
  ever began (the empty word: a never-used instance is a valid one —
  this matches the verdicts of §2.2, where the unused valve ``b`` is not
  reported).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.automata.kernel.alphabet import Alphabet
from repro.automata.kernel.bitset import BitDFA, BitNFA, BitNFABuilder
from repro.automata.kernel.determinize import determinize_bitset
from repro.frontend.model_ast import OperationDef, ParsedClass, ReturnPoint

#: State names used by the specification automaton; ``start`` is state 0
#: of :meth:`ClassSpec.states`, so ``START_BIT`` in a :class:`SpecTable` bitset.
START_STATE = "start"
START_BIT = 1


def exit_state(operation: str, exit_id: int) -> tuple[str, str, int]:
    """The automaton state for exit ``exit_id`` of ``operation``."""
    return ("exit", operation, exit_id)


@dataclass(frozen=True)
class ClassSpec:
    """The specification of one ``@sys`` class."""

    name: str
    operations: tuple[OperationDef, ...]

    @staticmethod
    def of(parsed: ParsedClass) -> "ClassSpec":
        return ClassSpec(name=parsed.name, operations=parsed.operations)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def operation(self, name: str) -> OperationDef | None:
        for operation in self.operations:
            if operation.name == name:
                return operation
        return None

    def operation_names(self) -> tuple[str, ...]:
        return tuple(operation.name for operation in self.operations)

    def initial_operations(self) -> tuple[OperationDef, ...]:
        return tuple(op for op in self.operations if op.kind.is_initial)

    def final_operations(self) -> tuple[OperationDef, ...]:
        return tuple(op for op in self.operations if op.kind.is_final)

    def exit_points(self, operation: str) -> tuple[ReturnPoint, ...]:
        found = self.operation(operation)
        return found.returns if found is not None else ()

    # ------------------------------------------------------------------
    # Automata
    # ------------------------------------------------------------------

    def states(self) -> tuple:
        """The automaton's states: ``start``, then each exit state in
        declaration order (a repeated exit is listed once)."""
        return tuple(
            dict.fromkeys(
                [START_STATE]
                + [
                    exit_state(operation.name, point.exit_id)
                    for operation in self.operations
                    for point in operation.returns
                ]
            )
        )

    def accepting_states(self) -> frozenset:
        """``start`` (the empty lifecycle) and every exit of a final
        operation."""
        return frozenset(
            [START_STATE]
            + [
                exit_state(operation.name, point.exit_id)
                for operation in self.final_operations()
                for point in operation.returns
            ]
        )

    def arcs(self, prefix: str = "") -> list[tuple[object, str, object]]:
        """Every transition ``(source, event, target)`` of the automaton.

        Event ``prefix + m`` leads to each exit of operation ``m`` — from
        ``start`` when ``m`` is initial, and from every exit whose
        next-method set lists ``m``.  :meth:`bitnfa` is built from this
        enumeration.
        """
        by_name: dict[str, OperationDef] = {}
        for operation in self.operations:
            by_name.setdefault(operation.name, operation)
        arcs: list[tuple[object, str, object]] = []

        def connect(source, operation: OperationDef) -> None:
            label = prefix + operation.name
            for point in operation.returns:
                arcs.append(
                    (source, label, exit_state(operation.name, point.exit_id))
                )

        for operation in self.initial_operations():
            connect(START_STATE, operation)
        for operation in self.operations:
            for point in operation.returns:
                source = exit_state(operation.name, point.exit_id)
                for next_name in point.next_methods:
                    next_operation = by_name.get(next_name)
                    if next_operation is not None:
                        connect(source, next_operation)
        return arcs

    def bitnfa(self, prefix: str = "", alphabet: Alphabet | None = None) -> BitNFA:
        """The specification automaton, with events ``prefix + op name``:
        epsilon-free, states numbered in :meth:`states` order.

        ``prefix`` is how a composite's subsystem instance scopes its
        events: ``Valve`` used as field ``a`` has events ``a.test`` etc.
        Every operation name is in the alphabet, even an unreachable one
        (diagnosed separately), so products line up.  ``alphabet``
        optionally supplies a shared interner; it must contain every
        ``prefix + op name``.
        """
        if alphabet is None:
            alphabet = Alphabet(prefix + name for name in self.operation_names())
        builder = BitNFABuilder()
        index = {state: builder.add_state() for state in self.states()}
        for source, label, target in self.arcs(prefix):
            builder.add_transition(index[source], label, index[target])
        accepting = 0
        for state in self.accepting_states():
            accepting |= 1 << index[state]
        return builder.build(1 << index[START_STATE], accepting, alphabet)

    def dfa(self, prefix: str = "") -> BitDFA:
        """Determinized specification automaton (BFS-numbered states)."""
        return determinize_bitset(self.bitnfa(prefix))

    @cached_property
    def table(self) -> "SpecTable":
        """This spec compiled for the monitor's per-call queries."""
        return SpecTable(self)


class SpecTable:
    """A :class:`ClassSpec` compiled once for per-call queries: a set of
    states is an int bitset over :meth:`ClassSpec.states`.  An exit
    allows each name its list declares, declared operation or not; the
    exits of a name are its :meth:`ClassSpec.exit_points`."""

    def __init__(self, spec: ClassSpec):
        bit = {state: 1 << i for i, state in enumerate(spec.states())}
        self.accepting = sum(map(bit.get, spec.accepting_states()))  # distinct bits
        #: Every exit of each declared operation name.
        self.exits = dict.fromkeys(spec.operation_names(), 0)
        self._narrow: dict[tuple[str, tuple[str, ...]], int] = {}
        self._allowed = dict.fromkeys([0, *bit.values()], frozenset())
        self._allowed[START_BIT] = frozenset(op.name for op in spec.initial_operations())
        for name in self.exits:
            for point in spec.exit_points(name):
                exit_bit = bit[exit_state(name, point.exit_id)]
                self._allowed[exit_bit] |= frozenset(point.next_methods)
                self.exits[name] |= exit_bit
                key = (name, point.next_methods)
                self._narrow[key] = self._narrow.get(key, 0) | exit_bit

    def allowed(self, states: int) -> frozenset[str]:
        """The names allowed from any of ``states``."""
        # Memoized (few sets are reachable); a racing write stores the same value.
        if states not in self._allowed:
            bits = (1 << i for i in range(states.bit_length()) if states >> i & 1)
            self._allowed[states] = frozenset().union(*map(self._allowed.get, bits))
        return self._allowed[states]

    def narrow(self, name: str, declared: tuple[str, ...]) -> int:
        """The exits of ``name`` whose next-method list is ``declared``."""
        return self._narrow.get((name, declared), 0)
