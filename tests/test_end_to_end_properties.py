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


@given(shapes())
@settings(max_examples=25, deadline=None)
def test_counterexample_is_a_genuine_violation(shape):
    """Every reported counterexample (a) is a trace the behavior
    automaton accepts, and (b) fails the replay against the named
    subsystem's specification."""
    from repro.automata.determinize import determinize
    from repro.core.oracle import classic_behavior_nfa

    source = module_source(shape, correct=False)
    module, violations = parse_module(source)
    checker = Checker(module, violations)
    result = checker.check()
    composite = module.get_class("Controller")
    behavior = determinize(classic_behavior_nfa(composite))
    for diagnostic in result.by_code("invalid-subsystem-usage"):
        trace = diagnostic.counterexample
        assert trace is not None
        assert behavior.accepts(trace), trace
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
