"""Differential property test: the compiled spec table == named states.

``ClassSpec.table`` answers the runtime monitor's and ``repro explain``'s
per-call queries over int bitsets.  The reference below answers the same
queries over named automaton states (``start`` and ``("exit", op, id)``),
reading the spec directly: a state's allowed set is the declared
next-method names of its exit (names no operation declares included),
the exits of a name are those of its first operation, and finalization
is legal from ``accepting_states()``, ``start`` included.

Specs are built straight from ``OperationDef``/``ReturnPoint``, so they
reach shapes the parser never emits: duplicate operation names, repeated
exit ids, next-method lists naming undeclared operations, operations
without exits, classes with no initial or no final operation.  The
nightly CI job re-runs this file with a larger budget; explicit
``max_examples`` would override any profile, so budgets here are scaled
by ``REPRO_FUZZ_MULTIPLIER`` (the nightly workflow sets it to 20).
"""

import os

from hypothesis import given, settings, strategies as st

from repro.core.spec import START_STATE, ClassSpec, exit_state
from repro.frontend.model_ast import OperationDef, OpKind, ReturnPoint
from repro.lang.ast import SKIP

#: Declared names are drawn from NAMES; next-method lists may also name
#: GHOST, which no operation ever declares.
NAMES = ("a", "b", "c")
GHOST = "ghost"

_MULTIPLIER = max(1, int(os.environ.get("REPRO_FUZZ_MULTIPLIER", "1")))


def _examples(base: int) -> int:
    return base * _MULTIPLIER


return_points = st.builds(
    ReturnPoint,
    exit_id=st.integers(min_value=0, max_value=2),
    next_methods=st.lists(st.sampled_from(NAMES + (GHOST,)), max_size=3).map(tuple),
)

operations = st.builds(
    OperationDef,
    name=st.sampled_from(NAMES),
    kind=st.sampled_from(list(OpKind)),
    returns=st.lists(return_points, max_size=3).map(tuple),
    body=st.just(SKIP),
)

specs = st.builds(
    ClassSpec,
    name=st.just("Random"),
    operations=st.lists(operations, max_size=5).map(tuple),
)


# -- the reference: named states, read straight from the spec ----------


def reference_allowed(spec: ClassSpec, states: frozenset) -> frozenset[str]:
    allowed: set[str] = set()
    for state in states:
        if state == START_STATE:
            allowed.update(op.name for op in spec.initial_operations())
        else:
            _tag, name, exit_id = state
            for point in spec.exit_points(name):
                if point.exit_id == exit_id:
                    allowed.update(point.next_methods)
    return frozenset(allowed)


def reference_finalizable(spec: ClassSpec, states: frozenset) -> bool:
    accepting = {START_STATE} | {
        exit_state(op.name, point.exit_id)
        for op in spec.final_operations()
        for point in op.returns
    }
    return bool(states & accepting)


def reference_narrow(spec: ClassSpec, name: str, declared: tuple) -> frozenset:
    return frozenset(
        exit_state(name, point.exit_id)
        for point in spec.exit_points(name)
        if point.next_methods == declared
    )


def as_bits(spec: ClassSpec, states: frozenset) -> int:
    order = spec.states()
    return sum(1 << order.index(state) for state in states)


@settings(max_examples=_examples(300), deadline=None)
@given(specs)
def test_table_matches_named_states_on_every_reachable_set(spec):
    """Walk every state set the monitor (narrowing to one returned list)
    and ``repro explain`` (all exits of the called operation) can reach
    from ``start``; at each, the table agrees with the reference."""
    table = spec.table
    assert list(table.exits) == list(dict.fromkeys(spec.operation_names()))
    start = frozenset({START_STATE})
    seen, frontier = {start}, [start]
    while frontier:
        states = frontier.pop()
        bits = as_bits(spec, states)
        allowed = reference_allowed(spec, states)
        assert table.allowed(bits) == allowed
        assert bool(bits & table.accepting) == reference_finalizable(spec, states)
        for name in sorted(allowed & set(spec.operation_names())):
            points = spec.exit_points(name)
            successors = [frozenset(exit_state(name, p.exit_id) for p in points)]
            assert table.exits[name] == as_bits(spec, successors[0])
            # Every declared list, plus one that no exit returns.
            for declared in {p.next_methods for p in points} | {("undeclared",)}:
                narrowed = reference_narrow(spec, name, declared)
                assert table.narrow(name, declared) == as_bits(spec, narrowed)
                successors.append(narrowed)
            for successor in successors:
                if successor and successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
    assert table.allowed(0) == frozenset()


@settings(max_examples=_examples(100), deadline=None)
@given(specs, st.lists(st.integers(min_value=0), max_size=6))
def test_unions_match_named_states(spec, picks):
    """The allowed set of an arbitrary set of states is the union of
    its members' sets, memoized or not."""
    order = spec.states()
    states = frozenset(order[pick % len(order)] for pick in picks)
    bits = as_bits(spec, states)
    assert spec.table.allowed(bits) == reference_allowed(spec, states)
    assert spec.table.allowed(bits) == reference_allowed(spec, states)
    assert bool(bits & spec.table.accepting) == reference_finalizable(spec, states)
