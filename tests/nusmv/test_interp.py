"""Semantic validation of the NuSMV emission: the emitted model,
executed by the interpreter, accepts exactly the source DFA's language —
witnessed by regex matching for regex-built automata and by hand-picked
lifecycles for the paper's behavior automaton."""

import itertools

import pytest

from repro.automata.kernel import determinize_bitset, thompson_bitnfa
from repro.core.behavior import behavior_nfa
from repro.nusmv.emit import emit_dfa
from repro.nusmv.interp import NuSmvParseError, accepts_via_nusmv, interpret
from repro.regex.matching import matches
from repro.regex.parser import parse_regex

ALPHABET = frozenset({"a", "b"})


def dfa_of(text: str):
    return determinize_bitset(thompson_bitnfa(parse_regex(text), ALPHABET))


class TestInterpreter:
    def test_parses_emitted_model(self):
        model = interpret(emit_dfa(dfa_of("a . b")))
        assert model.done_state == "done"
        assert model.default_state == "dead"
        assert "_end" in model.events

    def test_rejects_foreign_text(self):
        with pytest.raises(NuSmvParseError):
            interpret("MODULE main\nVAR x : boolean;\n")

    def test_step_rejects_unknown_event(self):
        model = interpret(emit_dfa(dfa_of("a")))
        with pytest.raises(KeyError):
            model.step(model.initial_state, "zz")

    def test_run_lands_in_dead_after_bad_event(self):
        model = interpret(emit_dfa(dfa_of("a")))
        assert model.run(["b"]) == "dead"


class TestSemanticAgreement:
    @pytest.mark.parametrize(
        "regex_text",
        ["a", "a . b", "(a + b)*", "a . (b + a)* . b", "(a . b)* + a", "{}", "eps"],
    )
    def test_emitted_model_matches_dfa(self, regex_text):
        regex = parse_regex(regex_text)
        dfa = dfa_of(regex_text)
        text = emit_dfa(dfa)
        for length in range(5):
            for word in itertools.product(sorted(ALPHABET), repeat=length):
                assert accepts_via_nusmv(text, word, dfa.alphabet) == matches(
                    regex, word
                ), (regex_text, word)

    def test_bad_sector_behavior_model(self, bad_sector):
        dfa = determinize_bitset(behavior_nfa(bad_sector))
        text = emit_dfa(dfa)
        positives = [
            ("open_a", "a.test", "a.open"),
            ("open_a", "a.test", "a.clean"),
            (),
        ]
        negatives = [
            ("open_a",),
            ("a.test",),
            ("open_a", "a.test", "a.open", "open_b"),
        ]
        for word in positives:
            assert accepts_via_nusmv(text, word, dfa.alphabet), word
            assert dfa.accepts(word)
        for word in negatives:
            assert not accepts_via_nusmv(text, word, dfa.alphabet), word
            assert not dfa.accepts(word)

    def test_unknown_event_rejected(self):
        dfa = dfa_of("a")
        text = emit_dfa(dfa)
        assert not accepts_via_nusmv(text, ["zz"], {*dfa.alphabet, "zz"})


class TestPropertyAgreement:
    def test_random_regexes(self):
        from hypothesis import given, settings, strategies as st

        from repro.regex.ast import EMPTY, EPSILON, concat, star, symbol, union

        atoms = st.sampled_from([EMPTY, EPSILON, symbol("a"), symbol("b")])
        regexes = st.recursive(
            atoms,
            lambda children: st.one_of(
                st.tuples(children, children).map(lambda p: concat(*p)),
                st.tuples(children, children).map(lambda p: union(*p)),
                children.map(star),
            ),
            max_leaves=8,
        )
        words = st.lists(st.sampled_from(["a", "b"]), max_size=5).map(tuple)

        @given(regexes, words)
        @settings(max_examples=120, deadline=None)
        def check(regex, word):
            dfa = determinize_bitset(thompson_bitnfa(regex, ALPHABET))
            text = emit_dfa(dfa)
            assert accepts_via_nusmv(text, word, dfa.alphabet) == matches(regex, word)

        check()
