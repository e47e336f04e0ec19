"""Dynamic enforcement of extracted models."""

import pytest

from repro.frontend.decorators import op, op_final, op_initial, sys
from repro.runtime.monitor import (
    IncompleteLifecycleError,
    MonitorError,
    OrderViolationError,
    SpecMismatchError,
    call_operation,
    finalize,
    history_of,
    lifecycle,
    monitored,
)
from repro.runtime.trace import TraceRecorder


def make_valve_class():
    """A fresh annotated Valve class (runtime flavour, no pins)."""

    @sys
    class Valve:
        def __init__(self):
            self.is_open = False
            self.needs_cleaning = False

        @op_initial
        def test(self):
            if self.needs_cleaning:
                return ["clean"]
            return ["open"]

        @op
        def open(self):
            self.is_open = True
            return ["close"]

        @op_final
        def close(self):
            self.is_open = False
            return ["test"]

        @op_final
        def clean(self):
            return ["test"]

    return Valve


def make_lamp_class():
    """``switch_on`` names ``dim``, which the class never declares;
    ``switch_off``'s exit allows nothing."""

    @sys
    class Lamp:
        @op_initial
        def switch_on(self):
            return ["switch_off", "dim"]

        @op_final
        def switch_off(self):
            return []

    return Lamp


@pytest.fixture
def valve_class():
    return monitored(make_valve_class())


class TestHappyPath:
    def test_valid_lifecycle(self, valve_class):
        valve = valve_class()
        valve.test()
        valve.open()
        valve.close()
        finalize(valve)
        assert history_of(valve) == ("test", "open", "close")

    def test_empty_lifecycle_finalizes(self, valve_class):
        finalize(valve_class())

    def test_repeated_cycles(self, valve_class):
        valve = valve_class()
        valve.test()
        valve.open()
        valve.close()
        valve.test()
        valve.open()
        valve.close()
        finalize(valve)

    def test_lifecycle_context_manager(self, valve_class):
        with lifecycle(valve_class()) as valve:
            valve.test()
            valve.open()
            valve.close()

    def test_return_values_pass_through(self, valve_class):
        valve = valve_class()
        assert valve.test() == ["open"]


class TestViolations:
    def test_non_initial_first_call(self, valve_class):
        valve = valve_class()
        with pytest.raises(OrderViolationError) as exc:
            valve.open()
        assert str(exc.value) == (
            "Valve.open not allowed here; history: (no call yet); allowed now: test"
        )

    def test_out_of_order_call(self, valve_class):
        valve = valve_class()
        valve.test()
        with pytest.raises(OrderViolationError) as exc:
            valve.close()  # close requires open first
        assert str(exc.value) == (
            "Valve.close not allowed here; history: test; allowed now: open"
        )

    def test_allowed_set_is_sorted_and_keeps_undeclared_names(self):
        lamp = monitored(make_lamp_class())()
        lamp.switch_on()
        with pytest.raises(OrderViolationError) as exc:
            lamp.switch_on()
        assert str(exc.value) == (
            "Lamp.switch_on not allowed here; history: switch_on; "
            "allowed now: dim, switch_off"
        )

    def test_nothing_allowed_after_an_empty_exit(self):
        lamp = monitored(make_lamp_class())()
        lamp.switch_on()
        lamp.switch_off()
        with pytest.raises(OrderViolationError) as exc:
            lamp.switch_on()
        assert str(exc.value) == (
            "Lamp.switch_on not allowed here; history: switch_on, switch_off; "
            "allowed now: (none)"
        )

    def test_undeclared_operation_is_refused_by_call_operation(self):
        lamp = monitored(make_lamp_class())()
        lamp.switch_on()
        with pytest.raises(MonitorError) as exc:
            call_operation(lamp, "dim")
        assert str(exc.value) == "Lamp declares no operation 'dim'"

    def test_finalize_mid_lifecycle(self, valve_class):
        valve = valve_class()
        valve.test()
        valve.open()
        with pytest.raises(IncompleteLifecycleError) as exc:
            finalize(valve)
        assert str(exc.value) == (
            "Valve instance finalized mid-lifecycle; history: test, open"
        )

    def test_call_after_finalize(self, valve_class):
        valve = valve_class()
        finalize(valve)
        with pytest.raises(OrderViolationError) as exc:
            valve.test()
        assert str(exc.value) == "Valve.test invoked after the instance was finalized"

    def test_lifecycle_context_raises_on_incomplete(self, valve_class):
        with pytest.raises(IncompleteLifecycleError):
            with lifecycle(valve_class()) as valve:
                valve.test()
                valve.open()

    def test_instances_tracked_independently(self, valve_class):
        first, second = valve_class(), valve_class()
        first.test()
        first.open()
        second.test()  # second instance starts fresh
        first.close()
        finalize(first)


class TestSpecMismatch:
    def test_undeclared_next_set(self):
        # The published spec says go returns ["go"]; the implementation
        # returns a next-set no exit point declares.
        from repro.core.spec import ClassSpec
        from repro.frontend.parse import parse_module

        module, _ = parse_module(
            "@sys\n"
            "class Liar:\n"
            "    @op_initial\n"
            "    def go(self):\n"
            "        return ['go']\n"
        )
        spec = ClassSpec.of(module.get_class("Liar"))

        class Liar:
            def go(self):
                return ["undeclared"]

        wrapped = monitored(Liar, spec=spec)
        with pytest.raises(SpecMismatchError) as exc:
            wrapped().go()
        assert str(exc.value) == (
            "Liar.go returned next-method set ['undeclared'], "
            "which no declared exit point produces"
        )

    def test_non_list_return(self):
        # The declared spec is clean; the implementation misbehaves at
        # run time by returning a bare int.  Supplying the spec
        # explicitly mimics checking firmware against a published model.
        from repro.core.spec import ClassSpec
        from repro.frontend.parse import parse_module

        module, _ = parse_module(
            "@sys\n"
            "class Broken:\n"
            "    @op_initial\n"
            "    def go(self):\n"
            "        return ['go']\n"
        )
        spec = ClassSpec.of(module.get_class("Broken"))

        class Broken:
            def go(self):
                return 42

        wrapped = monitored(Broken, spec=spec)
        with pytest.raises(SpecMismatchError) as exc:
            wrapped().go()
        assert str(exc.value) == (
            "operation returned 42, which does not carry a next-method list"
        )


class _Names(list):
    """A ``list`` subclass: the monitor reads it as a plain list."""


#: A return value of ``Probe.go`` and what the monitor makes of it: the
#: names it allows next, or the error it raises.  A plain ``list`` is
#: decided by one lookup in the spec table; every other form goes
#: through the full next-method-set check, and so does a list the
#: lookup misses.
RETURNS = [
    (["stop"], {"stop"}),
    (("stop",), {"stop"}),
    (_Names(["stop"]), {"stop"}),
    ((["stop"], 42), {"stop"}),
    ([], set()),
    (([], 42), set()),
    (
        ["go", 1],
        (SpecMismatchError, "operation returned ['go', 1], which does not carry a next-method list"),
    ),
    (
        [["stop"]],
        (SpecMismatchError, "operation returned [['stop']], which does not carry a next-method list"),
    ),
    (None, (SpecMismatchError, "operation returned None, which does not carry a next-method list")),
    (
        ["undeclared"],
        (
            SpecMismatchError,
            "Probe.go returned next-method set ['undeclared'], which no declared exit point produces",
        ),
    ),
    (
        ["stop", "go"],
        (
            SpecMismatchError,
            "Probe.go returned next-method set ['stop', 'go'], which no declared exit point produces",
        ),
    ),
]


@pytest.mark.parametrize(
    "result, expected", RETURNS, ids=[repr(result) for result, _ in RETURNS]
)
def test_return_forms_narrow_or_refuse_as_before(result, expected):
    from repro.core.spec import ClassSpec
    from repro.frontend.parse import parse_module
    from repro.runtime.monitor import allowed_now

    module, _ = parse_module(
        "@sys\n"
        "class Probe:\n"
        "    @op_initial\n"
        "    def go(self):\n"
        "        if self.x:\n"
        "            return ['stop']\n"
        "        return []\n"
        "    @op_final\n"
        "    def stop(self):\n"
        "        return []\n"
    )

    class Probe:
        def go(self):
            return result

        def stop(self):
            return []

    probe = monitored(Probe, spec=ClassSpec.of(module.get_class("Probe")))()
    if isinstance(expected, set):
        assert probe.go() is result
        assert allowed_now(probe) == expected
        assert history_of(probe) == ("go",)
        return
    error_type, message = expected
    with pytest.raises(MonitorError) as exc:
        probe.go()
    assert type(exc.value) is error_type
    assert str(exc.value) == message
    assert allowed_now(probe) == {"go"}
    assert history_of(probe) == ()


class TestUserValueForm:
    def test_tuple_returns_narrow_state(self):
        @sys
        class Meter:
            @op_initial
            def read(self):
                return ["stop"], 42

            @op_final
            def stop(self):
                return []

        wrapped = monitored(Meter)
        meter = wrapped()
        follow, value = meter.read()
        assert (follow, value) == (["stop"], 42)
        meter.stop()
        finalize(meter)


class TestRecorder:
    def test_recorder_captures_events(self):
        recorder = TraceRecorder()
        wrapped = monitored(make_valve_class(), recorder=recorder)
        valve = wrapped()
        valve.test()
        valve.open()
        valve.close()
        assert recorder.as_trace() == ("test", "open", "close")
        assert recorder.format() == "test, open, close"
        assert len(recorder) == 3
