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

from repro.automata.determinize import determinize
from repro.automata.dfa import DFA
from repro.automata.kernel.alphabet import Alphabet
from repro.automata.kernel.bitset import BitNFA, BitNFABuilder
from repro.automata.nfa import NFA, NFABuilder
from repro.frontend.model_ast import OperationDef, ParsedClass, ReturnPoint

#: State names used by the specification automaton.
START_STATE = "start"


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
        next-method set lists ``m``.  Both :meth:`nfa` and
        :meth:`bitnfa` are built from this one enumeration.
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

    def nfa(self, prefix: str = "") -> NFA:
        """The specification automaton, with events ``prefix + op name``.

        ``prefix`` is how a composite's subsystem instance scopes its
        events: ``Valve`` used as field ``a`` has events ``a.test`` etc.
        """
        builder = NFABuilder()
        builder.add_states(self.states())
        builder.mark_initial(START_STATE)
        for state in self.accepting_states():
            builder.mark_accepting(state)
        for source, label, target in self.arcs(prefix):
            builder.add_transition(source, label, target)
        # Ensure every operation name is in the alphabet even when it is
        # unreachable (diagnosed separately) so products line up.
        builder.alphabet.update(prefix + name for name in self.operation_names())
        return builder.build()

    def bitnfa(self, prefix: str = "", alphabet: Alphabet | None = None) -> BitNFA:
        """:meth:`nfa` as an epsilon-free kernel automaton, states
        numbered in :meth:`states` order.

        ``alphabet`` optionally supplies a shared interner; it must
        contain every ``prefix + op name``.
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

    def dfa(self, prefix: str = "") -> DFA:
        """Determinized specification automaton."""
        return determinize(self.nfa(prefix))

    def allowed_after(self, state: frozenset) -> frozenset[str]:
        """Operation names allowed from a subset-construction state.

        Used by diagnostics ("which calls were legal here?") and by the
        runtime monitor.
        """
        allowed: set[str] = set()
        for nfa_state in state:
            if nfa_state == START_STATE:
                allowed.update(op.name for op in self.initial_operations())
            elif isinstance(nfa_state, tuple) and nfa_state[0] == "exit":
                _tag, operation_name, exit_id = nfa_state
                for point in self.exit_points(operation_name):
                    if point.exit_id == exit_id:
                        allowed.update(point.next_methods)
        return frozenset(allowed)
