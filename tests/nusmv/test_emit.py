"""NuSMV emission: structure, determinism, and the ω-lifting encoding."""

from repro.automata.kernel import determinize_bitset, thompson_bitnfa
from repro.core.behavior import behavior_nfa
from repro.ltlf.parser import parse_claim
from repro.nusmv.emit import emit_dfa, emit_model, formula_to_nusmv
from repro.nusmv.syntax import unique_names
from repro.regex.parser import parse_regex


def simple_dfa():
    return determinize_bitset(thompson_bitnfa(parse_regex("a . b"), {"a", "b"}))


class TestEmitDfa:
    def test_module_header(self):
        text = emit_dfa(simple_dfa())
        assert text.startswith("MODULE main\n")

    def test_custom_module_name(self):
        assert emit_dfa(simple_dfa(), "valve").startswith("MODULE valve\n")

    def test_event_ivar_includes_end_marker(self):
        text = emit_dfa(simple_dfa())
        assert "IVAR" in text
        assert "_end" in text

    def test_state_var_includes_done_and_dead(self):
        text = emit_dfa(simple_dfa())
        assert "done" in text
        assert "dead" in text

    def test_accepting_states_reach_done_on_end(self):
        text = emit_dfa(simple_dfa())
        assert "event = _end : done;" in text

    def test_done_self_loop(self):
        text = emit_dfa(simple_dfa())
        assert "state = done & event = _end : done;" in text

    def test_default_branch_to_dead(self):
        text = emit_dfa(simple_dfa())
        assert "TRUE : dead;" in text

    def test_defines_accepting_and_finished(self):
        text = emit_dfa(simple_dfa())
        assert "accepting :=" in text
        assert "finished := state = done;" in text

    def test_justice_constraint(self):
        text = emit_dfa(simple_dfa())
        assert "JUSTICE\n  finished;" in text

    def test_deterministic_output(self):
        assert emit_dfa(simple_dfa()) == emit_dfa(simple_dfa())

    def test_golden_structure_for_bad_sector(self, bad_sector):
        dfa = determinize_bitset(behavior_nfa(bad_sector))
        text = emit_dfa(dfa)
        # Every event of the behavior automaton appears, mangled.
        for event in ("open_a", "open_b", "a_test", "b_close"):
            assert event in text
        # One init, one next assignment.
        assert text.count("init(state)") == 1
        assert text.count("next(state)") == 1


class TestFormulaRendering:
    EVENTS = unique_names(["a.open", "b.open", "_end"])

    def test_atom(self):
        text = formula_to_nusmv(parse_claim("a.open"), self.EVENTS)
        assert text == "event = a_open"

    def test_weak_until_expansion(self):
        text = formula_to_nusmv(parse_claim("(!a.open) W b.open"), self.EVENTS)
        assert " U " in text
        assert "G " in text  # the | G φ arm

    def test_globally_guarded_by_end(self):
        text = formula_to_nusmv(parse_claim("G a.open"), self.EVENTS)
        assert "event != _end" in text

    def test_next_requires_real_event(self):
        text = formula_to_nusmv(parse_claim("X a.open"), self.EVENTS)
        assert text.startswith("X ((")

    def test_release_uses_v_operator(self):
        text = formula_to_nusmv(parse_claim("a.open R b.open"), self.EVENTS)
        assert " V " in text


class TestEmitModel:
    def test_ltlspec_appended_per_claim(self):
        dfa = simple_dfa()
        claims = [parse_claim("G a"), parse_claim("F b")]
        text = emit_model(dfa, claims)
        assert text.count("LTLSPEC") == 2

    def test_no_claims_no_ltlspec(self):
        assert "LTLSPEC" not in emit_model(simple_dfa(), [])

    def test_model_still_contains_automaton(self):
        text = emit_model(simple_dfa(), [parse_claim("G a")])
        assert "MODULE main" in text
        assert "JUSTICE" in text
