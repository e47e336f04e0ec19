"""The differential oracle: bitset kernel == classic automata.

The classic modules stay in the tree as the executable specification of
the kernel; this harness pins the two implementations against each other
on random NFAs (language equivalence, minimized state counts,
counterexample words), pins the kernel's direct constructors (Thompson,
behavior splice, spec automata) to the classic constructions they
replace, and checks every paper listing and workload generator
(byte-identical reports, identical budget trips).  The nightly CI job
re-runs this file with a much larger Hypothesis budget: explicit
``max_examples`` would override any profile, so budgets here are scaled
by ``REPRO_FUZZ_MULTIPLIER`` (the nightly workflow sets it to 20).
"""

import os

from hypothesis import given, settings, strategies as st

from repro.automata.determinize import determinize
from repro.automata.kernel import (
    KernelCheck,
    bitdfa_to_dfa,
    bitset_difference_counterexample,
    bitset_equivalent,
    bitset_intersection_counterexample,
    determinize_bitset,
    dfa_to_bitdfa,
    minimize_bitset,
    nfa_to_bitnfa,
    project_bitnfa,
    thompson_bitnfa,
)
from repro.automata.minimize import minimize
from repro.automata.nfa import NFA, NFABuilder
from repro.automata.operations import (
    inclusion_counterexample,
    lift_alphabet,
    project_nfa,
    with_alphabet,
)
from repro.automata.product import intersection
from repro.automata.shortest import shortest_accepted_word
from repro.automata.thompson import thompson
from repro.core.behavior import behavior_nfa
from repro.core.checker import Checker, check_parsed_class, check_source
from repro.core.limits import BudgetExceeded, Limits
from repro.core.oracle import (
    ClassicCheck,
    check_source_classic,
    classic_behavior_nfa,
)
from repro.core.spec import ClassSpec
from repro.engine.serialize import bitdfa_to_flat
from repro.frontend.parse import parse_module
from repro.paper import GOOD_MODULE, SECTION_2_MODULE, SECTOR_MODULE
from repro.regex.ast import EMPTY, EPSILON, Concat, Regex, Star, Union, symbol
from repro.workloads.hierarchy import (
    HierarchyShape,
    lifecycle_claim,
    module_source,
)

ALPHABET = ("a", "b", "c")
MAX_STATES = 5

_MULTIPLIER = max(1, int(os.environ.get("REPRO_FUZZ_MULTIPLIER", "1")))


def _examples(base: int) -> int:
    return base * _MULTIPLIER


@st.composite
def nfas(draw) -> NFA:
    """Small random NFAs with epsilon moves over a fixed alphabet."""
    n = draw(st.integers(min_value=1, max_value=MAX_STATES))
    states = [f"q{i}" for i in range(n)]
    builder = NFABuilder()
    builder.add_states(states)
    builder.mark_initial(states[0])
    transitions = draw(
        st.lists(
            st.tuples(
                st.sampled_from(states),
                st.sampled_from(ALPHABET),
                st.sampled_from(states),
            ),
            max_size=18,
        )
    )
    for source, symbol, target in transitions:
        builder.add_transition(source, symbol, target)
    for source, target in draw(
        st.lists(
            st.tuples(st.sampled_from(states), st.sampled_from(states)),
            max_size=3,
        )
    ):
        builder.add_epsilon(source, target)
    for state in states:
        if draw(st.booleans()):
            builder.mark_accepting(state)
    for symbol in ALPHABET:
        builder.alphabet.add(symbol)
    return builder.build()


def classic_as_bitdfa(nfa: NFA):
    """The classic determinization, interned for bitset comparison."""
    return dfa_to_bitdfa(determinize(nfa))


@given(nfas())
@settings(max_examples=_examples(150), deadline=None)
def test_determinize_language_equivalence(nfa):
    kernel = determinize_bitset(nfa_to_bitnfa(nfa))
    assert bitset_equivalent(kernel, classic_as_bitdfa(nfa))


@given(nfas())
@settings(max_examples=_examples(100), deadline=None)
def test_minimized_state_counts_agree(nfa):
    classic_minimal = minimize(determinize(nfa))
    kernel_minimal = minimize_bitset(determinize_bitset(nfa_to_bitnfa(nfa)))
    assert len(classic_minimal.states) == kernel_minimal.n
    assert bitset_equivalent(kernel_minimal, dfa_to_bitdfa(classic_minimal))


@given(nfas(), nfas())
@settings(max_examples=_examples(100), deadline=None)
def test_inclusion_counterexamples_agree(left, right):
    classic_left, classic_right = determinize(left), determinize(right)
    joint = classic_left.alphabet | classic_right.alphabet
    classic = inclusion_counterexample(
        with_alphabet(classic_left, joint), with_alphabet(classic_right, joint)
    )
    kernel = bitset_difference_counterexample(
        determinize_bitset(nfa_to_bitnfa(left)),
        determinize_bitset(nfa_to_bitnfa(right)),
    )
    assert classic == kernel


@given(nfas(), nfas())
@settings(max_examples=_examples(100), deadline=None)
def test_lifted_inclusion_counterexamples_agree(left, right):
    # The subsystem-usage reading: the right side self-loops on symbols
    # outside its alphabet.  Exercised with a projected right automaton
    # so the alphabets genuinely differ.
    keep = frozenset(ALPHABET[:2])
    classic_left = determinize(left)
    classic_right = determinize(project_nfa(right, keep))
    joint = classic_left.alphabet | classic_right.alphabet
    classic = inclusion_counterexample(
        with_alphabet(classic_left, joint),
        lift_alphabet(classic_right, joint),
    )
    kernel = bitset_difference_counterexample(
        determinize_bitset(nfa_to_bitnfa(left)),
        determinize_bitset(project_bitnfa(nfa_to_bitnfa(right), keep)),
        foreign="lift",
    )
    assert classic == kernel


@given(nfas(), nfas())
@settings(max_examples=_examples(100), deadline=None)
def test_intersection_counterexamples_agree(left, right):
    classic_left, classic_right = determinize(left), determinize(right)
    joint = classic_left.alphabet | classic_right.alphabet
    classic = shortest_accepted_word(
        intersection(
            with_alphabet(classic_left, joint),
            with_alphabet(classic_right, joint),
        )
    )
    kernel = bitset_intersection_counterexample(
        determinize_bitset(nfa_to_bitnfa(left)),
        determinize_bitset(nfa_to_bitnfa(right)),
    )
    assert classic == kernel


def _empty_language_nfa() -> NFA:
    builder = NFABuilder()
    builder.add_state("s")
    builder.mark_initial("s")
    for symbol in ALPHABET:
        builder.alphabet.add(symbol)
    return builder.build()


@given(nfas())
@settings(max_examples=_examples(75), deadline=None)
def test_counterexample_words_are_accepted(nfa):
    """Any counterexample the kernel reports is actually in the language."""
    kernel = determinize_bitset(nfa_to_bitnfa(nfa))
    empty = determinize_bitset(nfa_to_bitnfa(_empty_language_nfa()))
    word = bitset_difference_counterexample(kernel, empty)
    if word is not None:
        assert kernel.accepts(word)
        assert nfa.accepts(word)
    else:
        assert not nfa.accepts(())


# ----------------------------------------------------------------------
# Report byte-equality: paper listings and workload generators
# ----------------------------------------------------------------------

PAPER_SOURCES = {
    "section2": SECTION_2_MODULE,
    "sector": SECTOR_MODULE,
    "good": GOOD_MODULE,
}

WORKLOAD_SHAPES = [
    (HierarchyShape(base_operations=5, subsystems=2, seed=3), True),
    (HierarchyShape(base_operations=5, subsystems=2, seed=3), False),
    (
        HierarchyShape(
            base_operations=4, subsystems=3, composite_operations=2, seed=5
        ),
        False,
    ),
    (
        HierarchyShape(
            base_operations=6, subsystems=3, composite_operations=3, seed=11
        ),
        True,
    ),
]


def _reports(source: str) -> tuple[str, str]:
    """The checker's report and the classic oracle's, for comparison."""
    return check_source(source).format(), check_source_classic(source).format()


def test_paper_reports_byte_identical_across_kernels():
    for name, source in PAPER_SOURCES.items():
        kernel, classic = _reports(source)
        assert kernel == classic, name


def test_workload_reports_byte_identical_across_kernels():
    for shape, correct in WORKLOAD_SHAPES:
        claim = lifecycle_claim(shape) if correct else None
        kernel, classic = _reports(
            module_source(shape, correct=correct, claim=claim)
        )
        assert kernel == classic, (shape, correct)


def test_minimized_dfa_round_trip_preserves_language():
    for source in PAPER_SOURCES.values():
        module, _ = parse_module(source)
        for parsed in module.classes:
            classic_minimal = minimize(determinize(classic_behavior_nfa(parsed)))
            kernel_minimal = minimize_bitset(
                determinize_bitset(behavior_nfa(parsed))
            )
            assert len(classic_minimal.states) == kernel_minimal.n
            assert bitset_equivalent(
                kernel_minimal, dfa_to_bitdfa(classic_minimal)
            )
            # And the classic view of the kernel result is usable.
            round_tripped = bitdfa_to_dfa(kernel_minimal)
            assert round_tripped.accepts(()) == classic_minimal.accepts(())


# ----------------------------------------------------------------------
# Direct constructors == the classic constructions they replace
# ----------------------------------------------------------------------


@st.composite
def regexes(draw) -> Regex:
    """Raw regex trees (no smart-constructor simplification), so every
    Thompson fragment shape — nested stars, empty and epsilon leaves —
    occurs."""
    return draw(
        st.recursive(
            st.sampled_from([EMPTY, EPSILON] + [symbol(a) for a in ALPHABET]),
            lambda children: st.one_of(
                st.tuples(children, children).map(lambda pair: Concat(*pair)),
                st.tuples(children, children).map(lambda pair: Union(*pair)),
                children.map(Star),
            ),
            max_leaves=12,
        )
    )


def _flat_dfa(bitnfa) -> dict:
    return bitdfa_to_flat(determinize_bitset(bitnfa))


@given(regexes())
@settings(max_examples=_examples(150), deadline=None)
def test_direct_thompson_matches_classic(regex):
    direct = thompson_bitnfa(regex, ALPHABET)
    classic = nfa_to_bitnfa(thompson(regex, frozenset(ALPHABET)))
    assert direct.n == classic.n
    assert _flat_dfa(direct) == _flat_dfa(classic)


def _listing_and_workload_modules():
    for source in PAPER_SOURCES.values():
        yield parse_module(source)
    for shape, correct in WORKLOAD_SHAPES:
        claim = lifecycle_claim(shape) if correct else None
        yield parse_module(module_source(shape, correct=correct, claim=claim))


def test_behavior_matches_classic_construction():
    for module, _violations in _listing_and_workload_modules():
        for parsed in module.classes:
            direct = behavior_nfa(parsed)
            classic = classic_behavior_nfa(parsed)
            assert direct.n == len(classic.states), parsed.name
            assert _flat_dfa(direct) == _flat_dfa(nfa_to_bitnfa(classic)), parsed.name


def test_spec_automata_match_classic_construction():
    for module, _violations in _listing_and_workload_modules():
        for parsed in module.classes:
            spec = ClassSpec.of(parsed)
            for prefix in ("", "field."):
                assert _flat_dfa(spec.bitnfa(prefix)) == _flat_dfa(
                    nfa_to_bitnfa(spec.nfa(prefix))
                ), (parsed.name, prefix)


def test_budget_trips_match_the_oracle():
    """Every paper class under every state budget up to its behavior
    size + 40: kernel and oracle both finish with equal reports, or both
    trip with the same message (what ``ENGINE BUDGET`` prints)."""

    def outcome(parsed, specs, max_states, automata):
        try:
            result, _dfa = check_parsed_class(
                parsed, specs, limits=Limits(max_states=max_states),
                automata=automata,
            )
        except BudgetExceeded as trip:
            return "budget", str(trip)
        return "report", result.format()

    for source in PAPER_SOURCES.values():
        module, violations = parse_module(source)
        specs = Checker(module, violations).specs
        for parsed in module.classes:
            for max_states in range(1, behavior_nfa(parsed).n + 41):
                kernel = outcome(parsed, specs, max_states, KernelCheck)
                classic = outcome(parsed, specs, max_states, ClassicCheck)
                assert kernel == classic, (parsed.name, max_states)
