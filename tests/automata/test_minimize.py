"""Hopcroft minimization on the kernel: language preservation,
minimality, canonicity."""

from repro.automata.kernel import determinize_bitset, minimize_bitset, thompson_bitnfa
from repro.regex.ast import concat, star, symbol, union
from repro.regex.parser import parse_regex
from tests.automata.machines import make_dfa

A = symbol("a")
B = symbol("b")


def redundant_dfa():
    """Two copies of the same accepting tail that must merge."""
    return make_dfa(
        [(0, "a", 1), (0, "b", 2), (1, "a", 3), (2, "a", 4), (3, "a", 3), (4, "a", 4)],
        n=5,
        accepting=[3, 4],
        alphabet="ab",
    )


def minimal_of(regex):
    return minimize_bitset(determinize_bitset(thompson_bitnfa(regex)))


class TestMinimize:
    def test_language_preserved(self):
        dfa = redundant_dfa()
        small = minimize_bitset(dfa)
        for word in (
            [],
            ["a"],
            ["b"],
            ["a", "a"],
            ["b", "a"],
            ["a", "a", "a"],
            ["b", "a", "a"],
            ["a", "b"],
        ):
            assert dfa.accepts(word) == small.accepts(word)

    def test_merges_equivalent_states(self):
        # 1~2 and 3~4 merge; plus initial and dead state: 4 states total.
        assert minimize_bitset(redundant_dfa()).n == 4

    def test_canonical_across_equal_languages(self):
        # Two very different regexes for the same language minimize to
        # structurally identical DFAs.
        left = minimal_of(parse_regex("(a + b)*"))
        right = minimal_of(parse_regex("(a* . b*)*"))
        assert left == right

    def test_minimal_dfa_of_fixed_word(self):
        # "ab" needs exactly 4 total states (3 chain + dead).
        assert minimal_of(concat(A, B)).n == 4

    def test_empty_language(self):
        small = minimal_of(concat(A, union(B, B) * A * A))
        assert small.accepts(["a", "b", "a", "a"])

    def test_minimize_star(self):
        small = minimal_of(star(A))
        assert small.accepts([])
        assert small.accepts(["a", "a", "a"])
        assert not small.accepts(["b"])

    def test_idempotent(self):
        once = minimize_bitset(redundant_dfa())
        assert minimize_bitset(once) == once

    def test_all_accepting(self):
        dfa = make_dfa([(0, "a", 0)], n=1, accepting=[0], alphabet="a")
        small = minimize_bitset(dfa)
        assert small.accepts([])
        assert small.accepts(["a", "a"])

    def test_nothing_accepting(self):
        dfa = make_dfa([(0, "a", 0)], n=1, accepting=[], alphabet="a")
        small = minimize_bitset(dfa)
        assert not small.accepts([])
        assert not small.accepts(["a"])
        assert small.n == 1
