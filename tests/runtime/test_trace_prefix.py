"""Field-prefixed trace recording and replay against hierarchical specs.

A composite's subsystem traces use the ``field.method`` vocabulary of
the static models (§3's usage words), so a recorder scoped to a field
must produce events replayable against ``spec.dfa(prefix="field.")``.
"""

import pytest

from repro.core.spec import ClassSpec
from repro.frontend.parse import parse_module
from repro.runtime.monitor import finalize, monitored, set_recorder
from repro.runtime.trace import ScopedRecorder, TraceRecorder

DEVICE = '''
from repro.frontend.decorators import sys, op_initial, op_final

@sys
class Probe:
    @op_initial
    def start(self):
        return ["stop"]

    @op_final
    def stop(self):
        return ["start"]
'''


def probe_class():
    namespace: dict = {}
    exec(compile(DEVICE, "<probe>", "exec"), namespace)
    module, _violations = parse_module(DEVICE)
    spec = ClassSpec.of(module.get_class("Probe"))
    return namespace["Probe"], spec


class TestScopedRecorder:
    def test_scoped_events_carry_the_prefix(self):
        recorder = TraceRecorder()
        scoped = recorder.scoped("a")
        scoped.record("test")
        scoped.record("open")
        assert recorder.as_trace() == ("a.test", "a.open")

    def test_interleaving_with_root_events(self):
        recorder = TraceRecorder()
        a = recorder.scoped("a")
        recorder.record("open_a")
        a.record("test")
        recorder.record("open_b")
        assert recorder.as_trace() == ("open_a", "a.test", "open_b")

    def test_nested_scopes_join_with_single_dots(self):
        recorder = TraceRecorder()
        inner = recorder.scoped("ctrl").scoped("a")
        inner.record("test")
        assert recorder.as_trace() == ("ctrl.a.test",)

    def test_already_dotted_field_names_normalize(self):
        recorder = TraceRecorder()
        recorder.scoped("a.").record("test")
        assert recorder.as_trace() == ("a.test",)

    def test_empty_field_name_rejected(self):
        recorder = TraceRecorder()
        with pytest.raises(ValueError):
            recorder.scoped("")

    def test_scoped_view_is_shareable_and_immutable(self):
        recorder = TraceRecorder()
        scoped = recorder.scoped("a")
        assert isinstance(scoped, ScopedRecorder)
        with pytest.raises(AttributeError):
            scoped.prefix = "b."


class TestPrefixedReplay:
    def test_monitored_events_replay_against_prefixed_spec(self):
        """Events recorded under a field prefix are words of the
        prefix-translated specification automaton."""
        cls, spec = probe_class()
        wrapped = monitored(cls, spec=spec)
        recorder = TraceRecorder()
        set_recorder(wrapped, recorder.scoped("s0"))
        try:
            instance = wrapped()
            instance.start()
            instance.stop()
            finalize(instance)
        finally:
            set_recorder(wrapped, None)
        trace = recorder.as_trace()
        assert trace == ("s0.start", "s0.stop")
        prefixed_dfa = spec.dfa(prefix="s0.")
        assert prefixed_dfa.accepts(trace)
        assert not prefixed_dfa.accepts(("s0.start",))

    def test_two_fields_share_one_interleaved_log(self):
        cls, spec = probe_class()
        wrapped = monitored(cls, spec=spec)
        recorder = TraceRecorder()
        prefixed = {
            "a": spec.dfa(prefix="a."),
            "b": spec.dfa(prefix="b."),
        }
        try:
            for field_name in ("a", "b"):
                set_recorder(wrapped, recorder.scoped(field_name))
                instance = wrapped()
                instance.start()
                instance.stop()
                finalize(instance)
        finally:
            set_recorder(wrapped, None)
        trace = recorder.as_trace()
        assert trace == ("a.start", "a.stop", "b.start", "b.stop")
        # Each field's projection is a word of its prefixed automaton.
        for field_name, dfa in prefixed.items():
            projection = tuple(
                event for event in trace
                if event.startswith(field_name + ".")
            )
            assert dfa.accepts(projection)
