"""End-to-end properties of the whole checker, over generated modules.

These tie everything together: for *arbitrary* (generator-shaped)
modules, clean modules verify, planted bugs are always found, and every
reported counterexample is a genuine, replayable violation.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.checker import Checker
from repro.core.spec import ClassSpec
from repro.core.usage import replay_against_spec
from repro.frontend.parse import parse_module
from repro.workloads.hierarchy import HierarchyShape, lifecycle_claim, module_source


def shapes() -> st.SearchStrategy[HierarchyShape]:
    return st.builds(
        HierarchyShape,
        base_operations=st.integers(min_value=2, max_value=6),
        subsystems=st.integers(min_value=1, max_value=4),
        composite_operations=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )


@given(shapes())
@settings(max_examples=40, deadline=None)
def test_correct_modules_always_verify(shape):
    source = module_source(shape, correct=True)
    module, violations = parse_module(source)
    assert not violations
    result = Checker(module, violations).check()
    assert result.ok, result.format()


@given(shapes())
@settings(max_examples=40, deadline=None)
def test_planted_bug_always_found(shape):
    source = module_source(shape, correct=False)
    module, violations = parse_module(source)
    result = Checker(module, violations).check()
    assert not result.ok
    assert result.by_code("invalid-subsystem-usage")


def behavior_accepts(parsed, trace) -> bool:
    """Is ``trace`` a word of ``parsed``'s behavior?  Read off the regexes:
    the trace splits into blocks ``m · w`` where ``w`` matches the
    inferred regex of one exit of ``m``, each ``m`` is allowed by the
    previous block's exit (initial at the start), and the last block
    ends at an exit of a final operation (or there is no block)."""
    from functools import lru_cache

    from repro.core.behavior import operation_exit_regexes
    from repro.regex.matching import matches

    trace = tuple(trace)
    operations = {operation.name: operation for operation in parsed.operations}
    initial = frozenset(op.name for op in parsed.operations if op.kind.is_initial)

    @lru_cache(maxsize=None)
    def accepts_from(position: int, allowed: frozenset, final: bool) -> bool:
        if position == len(trace):
            return final
        operation = operations.get(trace[position])
        if operation is None or operation.name not in allowed:
            return False
        regexes = operation_exit_regexes(operation)
        return any(
            matches(regexes[point.exit_id], trace[position + 1 : end])
            and accepts_from(end, frozenset(point.next_methods), operation.kind.is_final)
            for point in operation.returns
            for end in range(position + 1, len(trace) + 1)
        )

    return accepts_from(0, initial, True)


@given(shapes())
@settings(max_examples=25, deadline=None)
def test_counterexample_is_a_genuine_violation(shape):
    """Every reported counterexample (a) is a trace of the composite's
    behavior, by regex matching against the inferred exit regexes, and
    (b) fails the replay against the named subsystem's specification."""
    source = module_source(shape, correct=False)
    module, violations = parse_module(source)
    checker = Checker(module, violations)
    result = checker.check()
    composite = module.get_class("Controller")
    for diagnostic in result.by_code("invalid-subsystem-usage"):
        trace = diagnostic.counterexample
        assert trace is not None
        assert behavior_accepts(composite, trace), trace
        for error in diagnostic.subsystem_errors:
            spec = checker.specs[error.class_name]
            rendered = replay_against_spec(spec, trace, error.field_name + ".")
            assert rendered is not None  # the replay really fails
            assert rendered == error.rendered


@given(shapes())
@settings(max_examples=20, deadline=None)
def test_lifecycle_claim_holds_on_correct_modules(shape):
    source = module_source(shape, correct=True, claim=lifecycle_claim(shape))
    module, violations = parse_module(source)
    result = Checker(module, violations).check()
    assert result.ok, result.format()


@given(shapes(), st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_runtime_monitor_agrees_with_static_spec(shape, walk_seed):
    """Random monitored walks on the generated base class produce only
    spec-accepted traces (the dynamic/static coherence property)."""
    from repro.runtime.monitor import (
        IncompleteLifecycleError,
        OrderViolationError,
        finalize,
        monitored,
    )

    source = module_source(shape, correct=True)
    module, _ = parse_module(source)
    base = module.get_class("Device")
    spec = ClassSpec.of(base)
    dfa = spec.dfa()

    # Build a runtime class whose methods return their declared sets
    # (first exit point of each operation).
    namespace: dict = {}
    methods = {}
    for operation in base.operations:
        first_exit = operation.returns[0]
        methods[operation.name] = (
            lambda self, _next=list(first_exit.next_methods): list(_next)
        )
    runtime_class = type("RuntimeDevice", (), methods)
    namespace["RuntimeDevice"] = runtime_class
    wrapped = monitored(runtime_class, spec=spec)

    rng = random.Random(walk_seed)
    instance = wrapped()
    performed = []
    for _ in range(rng.randrange(0, 10)):
        name = rng.choice(spec.operation_names())
        try:
            getattr(instance, name)()
            performed.append(name)
        except OrderViolationError:
            pass
    try:
        finalize(instance)
    except IncompleteLifecycleError:
        return  # incomplete walks carry no acceptance obligation
    assert dfa.accepts(performed), performed
