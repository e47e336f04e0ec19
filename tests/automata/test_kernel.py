"""Unit tests for the bitset automata kernel.

The independent oracle (test_kernel_differential.py) checks the kernel
against reference simulators, regex matching, the spec table and
goldens; these tests cover the kernel's own contracts —
representations, budgets, memoization — directly.
"""

import pytest

from repro.automata.kernel import (
    Alphabet,
    BitDFA,
    KernelCheck,
    bitset_difference_counterexample,
    bitset_equivalent,
    bitset_included,
    bitset_intersection_counterexample,
    determinize_bitset,
    minimize_bitset,
    project_bitnfa,
)
from repro.core.limits import BudgetExceeded
from tests.automata.machines import make_nfa, reference_accepts


# ----------------------------------------------------------------------
# The checker's automata
# ----------------------------------------------------------------------

def test_default_kernel_is_bitset():
    """The checker determinizes composites on the bitset kernel."""
    from repro.core.checker import Checker, check_parsed_class
    from repro.frontend.parse import parse_module
    from repro.paper import SECTION_2_MODULE

    module, violations = parse_module(SECTION_2_MODULE)
    specs = Checker(module, violations).specs
    composite = next(parsed for parsed in module.classes if parsed.is_composite)
    _result, dfa = check_parsed_class(composite, specs)
    assert isinstance(dfa, BitDFA)


def test_check_builds_no_classic_automaton():
    """The kernel is the only automata library: no second one is left to
    build a behavior, spec or claim automaton, and checks still report
    both kinds of violation."""
    import importlib.util

    from repro.core.checker import check_source
    from repro.paper import GOOD_MODULE, SECTION_2_MODULE, SECTOR_MODULE
    from repro.workloads.hierarchy import (
        HierarchyShape,
        lifecycle_claim,
        module_source,
    )

    for name in ("nfa", "dfa", "determinize", "minimize", "operations",
                 "product", "shortest", "thompson", "to_regex"):
        assert importlib.util.find_spec(f"repro.automata.{name}") is None, name
    assert importlib.util.find_spec("repro.core.oracle") is None
    shape = HierarchyShape(base_operations=6, subsystems=3, seed=11)
    sources = [
        GOOD_MODULE,
        SECTION_2_MODULE,
        SECTOR_MODULE,
        module_source(shape, correct=False, claim=lifecycle_claim(shape)),
    ]
    reports = [check_source(source).format() for source in sources]
    assert any("INVALID SUBSYSTEM USAGE" in report for report in reports)
    assert any("FAIL TO MEET REQUIREMENT" in report for report in reports)


# ----------------------------------------------------------------------
# Representations
# ----------------------------------------------------------------------

def test_bitnfa_accepts_matches_classic():
    """The bitset reading agrees with a set-based simulation of the same
    transition list."""
    moves = [("s", "a", "t"), ("t", "b", "u")]
    bit = make_nfa(moves, initial=["s"], accepting=["u"], epsilon=[("s", "t")])
    for word in [(), ("a",), ("b",), ("a", "b"), ("b", "b"), ("a", "a")]:
        expected = reference_accepts(
            moves, word, initial={"s"}, accepting={"u"}, epsilon=[("s", "t")]
        )
        assert bit.accepts(word) == expected, word


def test_bitnfa_rejects_foreign_symbols():
    nfa = make_nfa([("s", "a", "t")], initial=["s"], accepting=["t"])
    assert not nfa.accepts(("z",))


def test_bitdfa_validates_delta_length():
    with pytest.raises(ValueError):
        BitDFA(Alphabet(["a"]), 2, [0], 0, 0)


def test_bitdfa_validates_initial():
    with pytest.raises(ValueError):
        BitDFA(Alphabet(["a"]), 2, [-1, -1], 5, 0)


def test_epsilon_free_conversion_shares_tables():
    bit = make_nfa([("s", "a", "t")], initial=["s"], accepting=["t"])
    assert bit.closed_succ is bit.succ  # the fast path really ran


def test_epsilon_closure_chains():
    # s -ε-> t -ε-> u, only u accepts: the empty word is accepted.
    bit = make_nfa(
        [("u", "a", "u")],
        initial=["s"],
        accepting=["u"],
        epsilon=[("s", "t"), ("t", "u")],
    )
    assert bit.accepts(())
    assert bit.accepts(("a",))


def test_round_trip_through_classic_dfa():
    """Through the model interchange JSON: the same automaton comes back."""
    from repro.core.model_io import dump_dfa, load_dfa

    nfa = make_nfa(
        [("s", "a", "t"), ("s", "a", "u"), ("t", "b", "u")],
        initial=["s"],
        accepting=["u"],
    )
    bitdfa = determinize_bitset(nfa)
    assert load_dfa(dump_dfa(bitdfa)) == bitdfa


# ----------------------------------------------------------------------
# Determinize / minimize budgets
# ----------------------------------------------------------------------

def _chain_nfa(length: int):
    transitions = [(f"q{i}", "a", f"q{i + 1}") for i in range(length)]
    return make_nfa(transitions, initial=["q0"], accepting=[f"q{length}"])


def test_determinize_charges_state_budget():
    with pytest.raises(BudgetExceeded):
        determinize_bitset((_chain_nfa(64)), max_states=4)


def test_determinize_zero_cap_disables_budget():
    bitdfa = determinize_bitset((_chain_nfa(64)), max_states=0)
    assert bitdfa.n == 65


def test_determinize_deadline_trips():
    import time

    with pytest.raises(BudgetExceeded):
        determinize_bitset(
            (_chain_nfa(4096)), max_states=0,
            deadline=time.monotonic() - 1.0,
        )


def test_minimize_input_budget_trips():
    bitdfa = determinize_bitset((_chain_nfa(32)))
    with pytest.raises(BudgetExceeded):
        minimize_bitset(bitdfa, max_states=4)


def test_minimize_collapses_equivalent_states():
    # Two parallel branches accepting exactly "ab" minimize to one chain
    # plus the dead sink.
    nfa = make_nfa(
        [
            ("s", "a", "t1"), ("t1", "b", "u1"),
            ("s", "a", "t2"), ("t2", "b", "u2"),
        ],
        initial=["s"],
        accepting=["u1", "u2"],
    )
    minimal = minimize_bitset(determinize_bitset(nfa))
    assert minimal.n == 4  # start, after-a, accept, dead
    assert minimal.accepts(("a", "b"))
    assert not minimal.accepts(("a",))


# ----------------------------------------------------------------------
# Inclusion / products
# ----------------------------------------------------------------------

def _dfa_of(words, alphabet):
    moves, accepting = [], []
    for index, word in enumerate(words):
        state = "r"
        for position, symbol in enumerate(word):
            nxt = f"w{index}p{position}"
            moves.append((state, symbol, nxt))
            state = nxt
        accepting.append(state)
    nfa = make_nfa(moves, initial=["r"], accepting=accepting, alphabet=alphabet)
    return determinize_bitset(nfa)


def test_included_and_counterexample():
    small = _dfa_of([("a",)], ["a", "b"])
    large = _dfa_of([("a",), ("b",)], ["a", "b"])
    assert bitset_included(small, large)
    assert not bitset_included(large, small)
    assert bitset_difference_counterexample(large, small) == ("b",)


def test_difference_counterexample_is_length_lex_minimal():
    left = _dfa_of([("b",), ("a", "a")], ["a", "b"])
    right = _dfa_of([], ["a", "b"])
    # Both ("b",) and ("a","a") are in the difference; BFS over sorted
    # symbols must return the shortest (then lexicographically first).
    assert bitset_difference_counterexample(left, right) == ("b",)


def test_empty_word_counterexample():
    left = _dfa_of([()], ["a"])
    right = _dfa_of([("a",)], ["a"])
    assert bitset_difference_counterexample(left, right) == ()


def test_intersection_counterexample():
    left = _dfa_of([("a",), ("b",)], ["a", "b"])
    right = _dfa_of([("b",), ("a", "a")], ["a", "b"])
    assert bitset_intersection_counterexample(left, right) == ("b",)
    disjoint = _dfa_of([("a", "a")], ["a", "b"])
    assert bitset_intersection_counterexample(left, disjoint) is None


def test_equivalence():
    one = _dfa_of([("a",), ("a", "a")], ["a"])
    two = _dfa_of([("a", "a"), ("a",)], ["a"])
    assert bitset_equivalent(one, two)
    assert not bitset_equivalent(one, _dfa_of([("a",)], ["a"]))


def test_lift_foreign_symbols_self_loop():
    # Right accepts "a"; left accepts "x a" where "x" is foreign to the
    # right.  Under the lift reading the right side ignores "x", so the
    # inclusion holds; under reject it fails immediately.
    left = _dfa_of([("x", "a")], ["a", "x"])
    right = _dfa_of([("a",)], ["a"])
    assert bitset_difference_counterexample(left, right, foreign="lift") is None
    assert (
        bitset_difference_counterexample(left, right, foreign="reject")
        == ("x", "a")
    )


def test_search_rejects_unknown_foreign_mode():
    one = _dfa_of([("a",)], ["a"])
    with pytest.raises(ValueError):
        bitset_difference_counterexample(one, one, foreign="ignore")


# ----------------------------------------------------------------------
# Projection
# ----------------------------------------------------------------------

def test_projection_drops_symbols_to_epsilon():
    nfa = make_nfa(
        [("s", "hidden", "t"), ("t", "a", "u")],
        initial=["s"],
        accepting=["u"],
    )
    projected = project_bitnfa(nfa, frozenset({"a"}))
    assert tuple(projected.alphabet.symbols) == ("a",)
    assert projected.accepts(("a",))  # "hidden" became an epsilon move


def test_projection_keeps_unproduced_symbols_in_alphabet():
    nfa = make_nfa([("s", "a", "t")], initial=["s"], accepting=["t"])
    projected = project_bitnfa(nfa, frozenset({"a", "never"}))
    assert "never" in projected.alphabet
    assert not projected.accepts(("never",))


# ----------------------------------------------------------------------
# KernelCheck memoization
# ----------------------------------------------------------------------

def test_kernel_check_memoizes_projections():
    nfa = make_nfa(
        [("s", "a", "t"), ("t", "b", "u")],
        initial=["s"],
        accepting=["u"],
    )
    ctx = KernelCheck(nfa)
    observed = frozenset({"a", "b"})
    assert ctx.projected_dfa(observed) is ctx.projected_dfa(observed)
    assert ctx.behavior_dfa() is ctx.behavior_dfa()


def test_kernel_check_budget_flows_to_behavior_dfa():
    ctx = KernelCheck((_chain_nfa(64)), max_states=4)
    with pytest.raises(BudgetExceeded):
        ctx.behavior_dfa()
