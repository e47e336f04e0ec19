"""LTLf → regular expression (the regular-language circle of §5)."""

import itertools

import pytest

from repro.ltlf.parser import parse_claim
from repro.ltlf.semantics import evaluate
from repro.ltlf.to_regex import formula_to_regex, violation_regex
from repro.regex.ast import format_regex
from repro.regex.matching import matches

ALPHABET = ["a", "b"]


def all_traces(max_length: int):
    for length in range(max_length + 1):
        yield from itertools.product(ALPHABET, repeat=length)


class TestFormulaToRegex:
    @pytest.mark.parametrize(
        "claim",
        [
            "a",
            "!a",
            "F b",
            "G a",
            "X b",
            "a U b",
            "(!a) W b",
            "G (a -> X b)",
            "F a & F b",
        ],
    )
    def test_regex_matches_exactly_the_models(self, claim):
        formula = parse_claim(claim)
        regex = formula_to_regex(formula, ALPHABET)
        for trace in all_traces(4):
            assert matches(regex, trace) == evaluate(formula, trace), (claim, trace)

    def test_simple_formulas_give_readable_regexes(self):
        # G a over {a} is a*.
        regex = formula_to_regex(parse_claim("G a"), ["a"])
        assert format_regex(regex) == "a*"

    def test_eventually_shape(self):
        # F b over {b} is b . b* + ... -> language of traces containing b.
        regex = formula_to_regex(parse_claim("F b"), ["b"])
        assert matches(regex, ("b",))
        assert matches(regex, ("b", "b"))
        assert not matches(regex, ())

    def test_default_alphabet_is_atoms(self):
        regex = formula_to_regex(parse_claim("a U b"))
        assert matches(regex, ("a", "a", "b"))
        assert not matches(regex, ("a",))

    def test_unsimplified_variant_same_language(self):
        formula = parse_claim("(!a) W b")
        fast = formula_to_regex(formula, ALPHABET, simplified=False)
        small = formula_to_regex(formula, ALPHABET, simplified=True)
        from repro.regex.equivalence import equivalent

        assert equivalent(fast, small)


class TestViolationRegex:
    def test_complement_of_models(self):
        formula = parse_claim("(!a) W b")
        violating = violation_regex(formula, ALPHABET)
        for trace in all_traces(4):
            assert matches(violating, trace) == (not evaluate(formula, trace))

    def test_violation_of_globally(self):
        violating = violation_regex(parse_claim("G a"), ALPHABET)
        assert matches(violating, ("b",))
        assert matches(violating, ("a", "b", "a"))
        assert not matches(violating, ("a", "a"))


class TestClaimCheckingViaRegexes:
    def test_bad_sector_claim_as_pure_regex_inclusion(self, bad_sector):
        """The §5 programme end to end: program behavior and claim both
        as regexes; the claim fails iff behavior ∩ violations ≠ ∅.  The
        witness is confirmed by regex matching and by the trace
        semantics, not by the progression DFA the checker uses."""
        from repro.automata.kernel import (
            bitset_intersection_counterexample,
            determinize_bitset,
            project_bitnfa,
            thompson_bitnfa,
        )
        from repro.core.behavior import behavior_nfa

        behavior = behavior_nfa(bad_sector)
        observed = sorted(l for l in behavior.alphabet if "." in l)
        projected = determinize_bitset(project_bitnfa(behavior, observed))

        formula = parse_claim("(!a.open) W b.open")
        violating = violation_regex(formula, observed)
        violating_dfa = determinize_bitset(thompson_bitnfa(violating, observed))

        witness = bitset_intersection_counterexample(projected, violating_dfa)
        assert witness == ("a.test", "a.open")
        assert matches(violating, witness)
        assert not evaluate(formula, witness)
