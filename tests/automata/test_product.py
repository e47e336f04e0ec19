"""Product questions on the fused search: intersection, difference and
symmetric difference, each witnessed by its length-lex-least word
(checked against regex matching)."""

from repro.automata.kernel import (
    bitset_difference_counterexample,
    bitset_intersection_counterexample,
    determinize_bitset,
    thompson_bitnfa,
)
from repro.regex.matching import matches
from repro.regex.parser import parse_regex
from tests.automata.machines import words_up_to

ALPHABET = frozenset({"a", "b"})
WORDS = list(words_up_to(ALPHABET, 4))


def dfa_of(text: str):
    return determinize_bitset(thompson_bitnfa(parse_regex(text), ALPHABET))


def least(left: str, right: str, keep) -> tuple[str, ...] | None:
    """The length-lex-least bounded word with ``keep(in left, in right)``."""
    left_regex, right_regex = parse_regex(left), parse_regex(right)
    for word in WORDS:
        if keep(matches(left_regex, word), matches(right_regex, word)):
            return word
    return None


def both(x: bool, y: bool) -> bool:
    return x and y


def only_left(x: bool, y: bool) -> bool:
    return x and not y


class TestIntersection:
    def test_semantics(self):
        left, right = "(a + b)* . a", "a . (a + b)*"  # ends / starts with a
        witness = bitset_intersection_counterexample(dfa_of(left), dfa_of(right))
        assert witness == least(left, right, both) == ("a",)

    def test_disjoint_languages_empty(self):
        assert bitset_intersection_counterexample(dfa_of("a"), dfa_of("b")) is None
        assert least("a", "b", both) is None


class TestDifference:
    def test_semantics(self):
        left, right = "(a + b)*", "(a . b)*"
        witness = bitset_difference_counterexample(dfa_of(left), dfa_of(right))
        assert witness == least(left, right, only_left) == ("a",)

    def test_self_difference_empty(self):
        dfa = dfa_of("(a . b)* + a")
        assert bitset_difference_counterexample(dfa, dfa) is None

    def test_difference_with_empty_right(self):
        left, right = "b . a + a . b", "{}"
        witness = bitset_difference_counterexample(dfa_of(left), dfa_of(right))
        assert witness == least(left, right, only_left) == ("a", "b")


class TestSymmetricDifference:
    def test_semantics(self):
        left, right = "a . (a + b)*", "(a + b)* . b"
        witnesses = [
            bitset_difference_counterexample(dfa_of(left), dfa_of(right)),
            bitset_difference_counterexample(dfa_of(right), dfa_of(left)),
        ]
        assert min(witnesses, key=lambda w: (len(w), w)) == least(
            left, right, lambda x, y: x != y
        )

    def test_equal_languages_give_empty(self):
        left, right = dfa_of("(a + b)*"), dfa_of("(a* . b*)*")
        assert bitset_difference_counterexample(left, right) is None
        assert bitset_difference_counterexample(right, left) is None
