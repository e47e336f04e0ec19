"""Cross-validation: the static checker, the runtime monitor and the
specification automaton must agree on concrete traces.

* any trace the spec automaton accepts must drive a monitored instance
  to a clean finalize;
* any counterexample the static checker reports must trip the monitor
  at the same event;
* random monitored executions always produce spec-accepted traces.
"""

import random

import pytest

from repro.core.checker import check_source
from repro.core.spec import ClassSpec
from repro.frontend.parse import parse_module
from repro.runtime.monitor import (
    IncompleteLifecycleError,
    OrderViolationError,
    call_operation,
    finalize,
    history_of,
    monitored,
)

VALVE_RUNTIME = '''
from repro.frontend.decorators import sys, op, op_initial, op_final

@sys
class RuntimeValve:
    def __init__(self):
        self.needs_cleaning = False

    @op_initial
    def test(self):
        if self.needs_cleaning:
            return ["clean"]
        return ["open"]

    @op
    def open(self):
        return ["close"]

    @op_final
    def close(self):
        self.needs_cleaning = True
        return ["test"]

    @op_final
    def clean(self):
        self.needs_cleaning = False
        return ["test"]
'''


@pytest.fixture(scope="module")
def runtime_valve_class():
    namespace: dict = {}
    exec(compile(VALVE_RUNTIME, "<runtime-valve>", "exec"), namespace)
    cls = namespace["RuntimeValve"]
    module, violations = parse_module(VALVE_RUNTIME)
    assert not violations
    spec = ClassSpec.of(module.get_class("RuntimeValve"))
    return monitored(cls, spec=spec), spec


class TestSpecAcceptedTracesRunClean:
    def drive(self, cls, trace):
        instance = cls()
        for event in trace:
            getattr(instance, event)()
        finalize(instance)

    def test_accepted_traces(self, runtime_valve_class):
        cls, spec = runtime_valve_class
        dfa = spec.dfa()
        # Enumerate accepted traces up to length 6 and replay each —
        # skipping the ones the *implementation's data flow* cannot take
        # (the monitor narrows by actual return values).
        replayed = 0
        for trace in dfa.accepted_words(6):
            try:
                self.drive(cls, trace)
                replayed += 1
            except OrderViolationError:
                # Statically allowed but dynamically excluded path (e.g.
                # "test, clean" when the valve is not dirty): the static
                # model over-approximates, exactly as the paper says.
                pass
        assert replayed >= 3

    def test_spec_rejected_trace_trips_monitor(self, runtime_valve_class):
        cls, spec = runtime_valve_class
        assert not spec.dfa().accepts(["open"])
        with pytest.raises(OrderViolationError):
            self.drive(cls, ["open"])

    def test_incomplete_trace_trips_finalize(self, runtime_valve_class):
        cls, spec = runtime_valve_class
        assert not spec.dfa().accepts(["test", "open"])
        with pytest.raises(IncompleteLifecycleError):
            self.drive(cls, ["test", "open"])


class TestMonitoredRunsAreSpecAccepted:
    def test_random_walks(self, runtime_valve_class):
        cls, spec = runtime_valve_class
        dfa = spec.dfa()
        rng = random.Random(1234)
        operations = spec.operation_names()
        for _round in range(50):
            instance = cls()
            performed = []
            for _step in range(rng.randrange(0, 8)):
                name = rng.choice(operations)
                try:
                    getattr(instance, name)()
                    performed.append(name)
                except OrderViolationError:
                    pass
            try:
                finalize(instance)
            except IncompleteLifecycleError:
                continue
            # A finalized monitored run is a word of the spec language.
            assert dfa.accepts(performed), performed


class TestStaticCounterexampleTripsMonitor:
    def test_bad_sector_counterexample(self):
        """The static counterexample (open_a, a.test, a.open) leaves
        valve 'a' mid-lifecycle; the monitor agrees at finalize time."""
        from repro.paper import SECTION_2_MODULE

        result = check_source(SECTION_2_MODULE)
        usage = result.by_code("invalid-subsystem-usage")[0]
        trace = usage.counterexample
        valve_events = [e.split(".", 1)[1] for e in trace if e.startswith("a.")]

        module, _ = parse_module(SECTION_2_MODULE)
        spec = ClassSpec.of(module.get_class("Valve"))

        class PlainValve:
            def test(self):
                return ["open"]

            def open(self):
                return ["close"]

            def close(self):
                return ["test"]

            def clean(self):
                return ["test"]

        cls = monitored(PlainValve, spec=spec)
        instance = cls()
        for event in valve_events:
            getattr(instance, event)()
        with pytest.raises(IncompleteLifecycleError):
            finalize(instance)


class TestEveryStaticCounterexampleTripsMonitor:
    """Every ``invalid-subsystem-usage`` counterexample of the paper
    listings, projected onto the failing field, must trip the runtime
    monitor at the exact event index the static DFA walk predicts —
    either an :class:`OrderViolationError` at the first missing
    transition, or an :class:`IncompleteLifecycleError` at finalize when
    the word runs through but ends in a non-accepting state."""

    @staticmethod
    def scripted_class(spec, word):
        """A fresh implementation steered along ``word``.

        Each operation returns the first declared exit point whose
        next-method set contains the next scripted symbol (falling back
        to the first exit point), so the monitor's dynamic narrowing
        follows exactly the path the static walk took.
        """

        def make_method(name):
            def method(self):
                index = self._cursor
                self._cursor = index + 1
                upcoming = word[index + 1] if index + 1 < len(word) else None
                points = spec.exit_points(name)
                for point in points:
                    if upcoming is not None and upcoming in point.next_methods:
                        return list(point.next_methods)
                return list(points[0].next_methods)

            return method

        def __init__(self):
            self._cursor = 0

        namespace = {"__init__": __init__}
        for operation in spec.operation_names():
            namespace[operation] = make_method(operation)
        return type(f"Scripted{spec.name}", (), namespace)

    @staticmethod
    def static_verdict(spec, word):
        """The static prediction: ``("order", i)`` when the DFA has no
        move on ``word[i]``; ``("incomplete", len(word))`` when the walk
        completes in a non-accepting state; ``None`` when accepted."""
        dfa = spec.dfa()
        state = dfa.initial
        for index, symbol in enumerate(word):
            symbol_id = dfa.alphabet.get(symbol)
            state = -1 if symbol_id < 0 else dfa.successor(state, symbol_id)
            if state < 0:
                return ("order", index)
        if not dfa.accepting >> state & 1:
            return ("incomplete", len(word))
        return None

    @pytest.mark.parametrize(
        "module_name", ["SECTION_2_MODULE", "SECTOR_MODULE", "GOOD_MODULE"]
    )
    def test_counterexamples_replay_at_the_same_index(self, module_name):
        import repro.paper as listings

        source = getattr(listings, module_name)
        result = check_source(source)
        module, _ = parse_module(source)
        replayed = 0
        for diagnostic in result.by_code("invalid-subsystem-usage"):
            assert diagnostic.counterexample is not None
            for sub in diagnostic.subsystem_errors:
                prefix = sub.field_name + "."
                word = tuple(
                    event[len(prefix):]
                    for event in diagnostic.counterexample
                    if event.startswith(prefix)
                )
                spec = ClassSpec.of(module.get_class(sub.class_name))
                verdict = self.static_verdict(spec, word)
                assert verdict is not None, (
                    "a failing field's projection must be spec-rejected"
                )
                kind, index = verdict
                cls = monitored(self.scripted_class(spec, word), spec=spec)
                instance = cls()
                if kind == "order":
                    # The monitor must allow exactly the prefix the
                    # static walk allowed, then refuse the same event.
                    for event in word[:index]:
                        call_operation(instance, event)
                    with pytest.raises(OrderViolationError):
                        call_operation(instance, word[index])
                    assert history_of(instance) == word[:index]
                else:
                    for event in word:
                        call_operation(instance, event)
                    assert history_of(instance) == word
                    with pytest.raises(IncompleteLifecycleError):
                        finalize(instance)
                replayed += 1
        if module_name == "SECTION_2_MODULE":
            # §2.2's BadSector counterexample (open_a, a.test, a.open).
            assert replayed >= 1
        else:
            # The repaired listings verify: nothing to replay.
            assert replayed == 0
