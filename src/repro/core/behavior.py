"""The behavior automaton of a class: spec structure + inferred bodies.

For a composite class the automaton describes every trace a complete
lifecycle can produce, over the joint alphabet of

* the class's **own operation events** (bare names: ``open_a``), and
* the **subsystem-call events** of the operation bodies (dotted names:
  ``a.test``) — inferred per exit point by ``⟦·⟧`` (Figure 4).

Construction: take the specification automaton of :class:`ClassSpec`
and expand each ``source --m--> exit_i(m)`` arc into

    ``source --m--> entered(m) --[body behavior for exit i]--> exit_i(m)``

where the body behavior is the Thompson automaton of the exit's inferred
regex.  Which exit a call takes is the callee's internal choice, so the
branching stays nondeterministic exactly as in the spec automaton.

For a base class the bodies perform no constrained calls, every exit
regex is ``ε`` and the construction degenerates to the specification
automaton itself — one uniform code path for both cases.
"""

from __future__ import annotations

from typing import Mapping

from repro.automata.kernel.alphabet import Alphabet
from repro.automata.kernel.bitset import BitNFA, BitNFABuilder
from repro.automata.kernel.thompson import add_thompson
from repro.core.limits import charge_states, check_deadline
from repro.core.spec import START_STATE, exit_state
from repro.frontend.model_ast import OperationDef, ParsedClass
from repro.lang.inference import exit_behaviors
from repro.regex.ast import EPSILON, Regex


def operation_exit_regexes(operation: OperationDef) -> dict[int, Regex]:
    """Inferred behavior (over subsystem-call events) per exit point."""
    inferred = exit_behaviors(operation.body)
    # Operations with no returns (already diagnosed) get no entries.
    return {
        point.exit_id: inferred.get(point.exit_id, EPSILON)
        for point in operation.returns
    }


def class_exit_regexes(parsed: ParsedClass) -> dict[str, dict[int, Regex]]:
    """Every operation's inferred per-exit behavior, keyed by name.

    The batch engine's workers compute this in their ``infer`` phase and
    hand it to :func:`behavior_nfa`; the value depends only on each
    operation's body term and declared exits.
    """
    return {
        operation.name: operation_exit_regexes(operation)
        for operation in parsed.operations
    }


def behavior_nfa(
    parsed: ParsedClass,
    exit_regexes: Mapping[str, Mapping[int, Regex]] | None = None,
    *,
    max_states: int | None = None,
    deadline: float | None = None,
    tracer=None,
) -> BitNFA:
    """Build the behavior automaton of ``parsed`` as a kernel
    :class:`~repro.automata.kernel.BitNFA`.

    ``exit_regexes`` optionally supplies precomputed (e.g. cached)
    inferred behaviors per operation name; operations not covered fall
    back to on-the-fly inference.  The construction itself is a pure
    function of the parsed class and those regexes.

    The states are ``start``, one ``entered`` state per operation, each
    exit's Thompson fragment and one state per exit, numbered as they
    are added; a name that recurs (an operation defined twice) reuses
    its state.  ``tests/golden/automata.json`` pins the state counts and
    determinized automata on the paper listings.

    ``max_states`` / ``deadline`` bound the splicing: after each
    operation's fragments are added the state count is charged against
    the budget (:class:`repro.core.limits.BudgetExceeded` on a trip).
    ``None`` leaves the construction unbounded — the automaton is
    linear in the spec anyway; the budget exists so the engine can
    enforce one cap uniformly across the whole check.

    ``tracer`` (optional, same plumbing point as the budget) annotates
    the enclosing span with the built automaton's size; it never alters
    the construction.
    """
    builder = BitNFABuilder()
    named: dict[object, int] = {}

    def state(name) -> int:
        found = named.get(name)
        if found is None:
            found = named[name] = builder.add_state()
        return found

    start = state(START_STATE)
    entered: dict[str, int] = {}
    exits: dict[tuple[str, int], int] = {}
    #: (operation, exit id) -> the states of its body fragment, by
    #: allocation order; a repeated operation name splices into them.
    bodies: dict[tuple[str, int], list[int]] = {}

    # Splice each operation's per-exit body fragments once; states are
    # added in the classic construction's order, so the budget is
    # charged the same counts.
    cap = None if max_states is None or max_states <= 0 else max_states
    for operation in parsed.operations:
        check_deadline(deadline, "behavior construction")
        entered[operation.name] = state(("entered", operation.name))
        supplied = None if exit_regexes is None else exit_regexes.get(operation.name)
        if supplied is None:
            per_exit = operation_exit_regexes(operation)
        else:
            per_exit = {
                point.exit_id: supplied.get(point.exit_id, EPSILON)
                for point in operation.returns
            }
        for point in operation.returns:
            key = (operation.name, point.exit_id)
            entry, body_exit = add_thompson(
                builder,
                per_exit[point.exit_id],
                _allocator(builder, bodies.setdefault(key, [])),
            )
            builder.add_epsilon(entered[operation.name], entry)
            exits[key] = state(exit_state(*key))
            builder.add_epsilon(body_exit, exits[key])
        charge_states(builder.n, cap, "behavior construction")

    # Wire the spec structure: initial ops from start, next-method sets
    # from each exit, and acceptance at exits of final ops.
    accepting = 1 << start
    for operation in parsed.operations:
        if operation.kind.is_initial:
            builder.add_transition(start, operation.name, entered[operation.name])
        for point in operation.returns:
            source = exits[(operation.name, point.exit_id)]
            for next_name in point.next_methods:
                if next_name in entered:
                    builder.add_transition(source, next_name, entered[next_name])
            if operation.kind.is_final:
                accepting |= 1 << source

    # Keep the full event vocabulary in the alphabet even when parts are
    # unreachable, so later products and lifts line up.
    symbols = builder.symbols()
    for operation in parsed.operations:
        symbols.add(operation.name)
        symbols.update(operation.calls)
    if tracer is not None and tracer.enabled:
        tracer.annotate(
            nfa_states=builder.n,
            operations=len(parsed.operations),
        )
    return builder.build(1 << start, accepting, Alphabet(symbols))


def _allocator(builder: BitNFABuilder, slots: list[int]):
    """A ``fresh`` for :func:`add_thompson` that hands out ``slots``
    first, then new states (appended to ``slots``)."""
    used = 0

    def fresh() -> int:
        nonlocal used
        if used == len(slots):
            slots.append(builder.add_state())
        used += 1
        return slots[used - 1]

    return fresh


def subsystem_alphabet(parsed: ParsedClass, field_name: str) -> frozenset[str]:
    """Event labels of one subsystem instance (``a.test``, ``a.open``...).

    Includes every method the class's bodies actually call on the field
    *and* every operation the subsystem's class declares is added by the
    caller when the spec is known; here we return the called set.
    """
    prefix = field_name + "."
    labels: set[str] = set()
    for operation in parsed.operations:
        labels.update(label for label in operation.calls if label.startswith(prefix))
    return frozenset(labels)
