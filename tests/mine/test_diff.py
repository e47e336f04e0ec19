"""The mined-vs-static differential engine."""

from repro.automata.kernel import Alphabet, BitDFA
from repro.core.spec import ClassSpec
from repro.frontend.parse import parse_module
from repro.mine.diff import diff_mined
from repro.mine.learn import MinedModel, MineStats

SPEC_SOURCE = '''
from repro.frontend.decorators import sys, op_initial, op_final

@sys
class Pump:
    @op_initial
    def start(self):
        return ["stop"]

    @op_final
    def stop(self):
        return ["start"]
'''


def pump_spec() -> ClassSpec:
    module, _violations = parse_module(SPEC_SOURCE)
    return ClassSpec.of(module.get_class("Pump"))


def model_of(transitions, accepting, states) -> MinedModel:
    alphabet = Alphabet({"start", "stop"})
    delta = [-1] * (states * len(alphabet))
    for (source, symbol), target in transitions.items():
        delta[source * len(alphabet) + alphabet.id_of(symbol)] = target
    accepting_mask = sum(1 << state for state in accepting)
    dfa = BitDFA(alphabet, states, delta, 0, accepting_mask)
    return MinedModel(class_name="Pump", dfa=dfa, stats=MineStats())


class TestDiff:
    def test_equivalent(self):
        spec = pump_spec()
        model = model_of(
            {(0, "start"): 1, (1, "stop"): 0}, accepting={0}, states=2
        )
        result = diff_mined(model, spec)
        assert result.verdict == "EQUIVALENT"
        assert result.sound and result.complete and result.equivalent
        assert result.unsound_witness is None
        assert result.missed_witness is None
        assert result.mined_states == result.static_states

    def test_unsound_with_minimal_witness(self):
        spec = pump_spec()
        # Accepts after a bare "start" — the spec rejects that.
        model = model_of(
            {(0, "start"): 1, (1, "stop"): 0}, accepting={0, 1}, states=2
        )
        result = diff_mined(model, spec)
        assert result.verdict == "UNSOUND"
        assert not result.sound
        assert result.unsound_witness == ("start",)
        assert "UNSOUND" in result.format()

    def test_incomplete_with_minimal_witness(self):
        spec = pump_spec()
        # Only the empty lifecycle: start/stop never observed.
        model = model_of({}, accepting={0}, states=1)
        result = diff_mined(model, spec)
        assert result.verdict == "INCOMPLETE"
        assert result.sound and not result.complete
        assert result.missed_witness == ("start", "stop")

    def test_format_is_deterministic(self):
        spec = pump_spec()
        model = model_of({}, accepting={0}, states=1)
        assert diff_mined(model, spec).format() == diff_mined(model, spec).format()

    def test_divergence_event_emitted(self):
        from repro.obs import Tracer

        spec = pump_spec()
        model = model_of({}, accepting={0}, states=1)
        tracer = Tracer()
        with tracer.span("run", "test"):
            diff_mined(model, spec, tracer=tracer)
        assert tracer.counters.get("event.mine-divergence") == 1
