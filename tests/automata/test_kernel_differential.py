"""The kernel's independent oracle.

The bitset kernel is the package's only automata library, so each
property it must have is checked against something that is not the
kernel:

* **Random NFAs** against a set-based reference simulator of the drawn
  transition list, on every word up to :data:`BOUND`: determinization
  and minimization keep the language, minimization reaches the state
  count of Brzozowski's double reversal, both number their states in
  BFS order, and every difference / intersection witness is in its
  language and length-lex minimal (``None`` only when no bounded word
  qualifies).
* **Regex-built automata** against the regex itself: Thompson
  allocates two states per node, accepts what :mod:`repro.regex`
  matching accepts, state elimination returns a regex that
  :func:`repro.regex.equivalence.equivalent` calls equal, and the
  lesser of the two difference witnesses is the word that
  :func:`repro.regex.equivalence.counterexample` finds with no length
  bound.
* **Spec automata** against the runtime monitor's
  :class:`~repro.core.spec.SpecTable` walk, up to a bounded length.
* **Goldens** recorded while a classic reference library still existed
  and agreed with the kernel (``tests/golden/automata.json``): behavior
  state counts, determinized behavior and spec automata, the full
  budget-trip table of the paper classes, and the checker's reports on
  the paper listings and workload modules.

The nightly CI job re-runs this file with a much larger Hypothesis
budget: explicit ``max_examples`` would override any profile, so
budgets here are scaled by ``REPRO_FUZZ_MULTIPLIER`` (the nightly
workflow sets it to 20).
"""

import hashlib
import json
import os
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.automata.kernel import (
    Alphabet,
    BitNFABuilder,
    bitdfa_to_regex,
    bitset_difference_counterexample,
    bitset_equivalent,
    bitset_intersection_counterexample,
    determinize_bitset,
    minimize_bitset,
    project_bitnfa,
    thompson_bitnfa,
)
from repro.core.behavior import behavior_nfa
from repro.core.checker import Checker, check_parsed_class, check_source
from repro.core.limits import BudgetExceeded, Limits
from repro.core.spec import ClassSpec
from repro.frontend.parse import parse_module
from repro.paper import GOOD_MODULE, SECTION_2_MODULE, SECTOR_MODULE
from repro.regex.ast import EMPTY, EPSILON, Concat, Regex, Star, Union, symbol
from repro.regex.equivalence import counterexample, equivalent
from repro.regex.matching import matches
from repro.workloads.hierarchy import (
    HierarchyShape,
    base_class_source,
    lifecycle_claim,
    module_source,
)
from tests.automata.machines import (
    is_bfs_numbered,
    mask,
    reference_accepts,
    spec_table_accepts,
    words_up_to,
)

ALPHABET = ("a", "b", "c")
MAX_STATES = 5
#: Every word up to this length is checked against the reference.
BOUND = 4

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "golden" / "automata.json").read_text(
        encoding="utf-8"
    )
)

_MULTIPLIER = max(1, int(os.environ.get("REPRO_FUZZ_MULTIPLIER", "1")))


def _examples(base: int) -> int:
    return base * _MULTIPLIER


# ----------------------------------------------------------------------
# Random NFAs against a set-based reference simulator
# ----------------------------------------------------------------------


class RawNFA:
    """A drawn NFA as plain sets — what the reference simulator reads."""

    def __init__(self, n, moves, epsilon, accepting):
        self.n, self.moves, self.epsilon = n, moves, epsilon
        self.initial, self.accepting = {0}, set(accepting)

    def accepts(self, word) -> bool:
        return reference_accepts(
            self.moves,
            word,
            initial=self.initial,
            accepting=self.accepting,
            epsilon=self.epsilon,
        )

    def projected(self, keep):
        """Moves on symbols outside ``keep`` read as epsilon moves."""
        moves = [(s, a, t) for s, a, t in self.moves if a in keep]
        hidden = [(s, t) for s, a, t in self.moves if a not in keep]
        return RawNFA(self.n, moves, self.epsilon + hidden, self.accepting)

    def kernel(self):
        """The same machine built into the kernel."""
        builder = BitNFABuilder()
        for _ in range(self.n):
            builder.add_state()
        for source, symbol_, target in self.moves:
            builder.add_transition(source, symbol_, target)
        for source, target in self.epsilon:
            builder.add_epsilon(source, target)
        return builder.build(mask(self.initial), mask(self.accepting), Alphabet(ALPHABET))


@st.composite
def nfas(draw) -> RawNFA:
    """Small random NFAs with epsilon moves over :data:`ALPHABET`."""
    n = draw(st.integers(min_value=1, max_value=MAX_STATES))
    states = st.integers(min_value=0, max_value=n - 1)
    moves = draw(
        st.lists(st.tuples(states, st.sampled_from(ALPHABET), states), max_size=18)
    )
    epsilon = draw(st.lists(st.tuples(states, states), max_size=3))
    accepting = [state for state in range(n) if draw(st.booleans())]
    return RawNFA(n, moves, epsilon, accepting)


def _words():
    return list(words_up_to(ALPHABET, BOUND))


def _reverse(bitnfa):
    """The reversed automaton: moves flipped, initial and accepting swapped."""
    builder = BitNFABuilder()
    for _ in range(bitnfa.n):
        builder.add_state()
    for source in range(bitnfa.n):
        for symbol_id, targets in enumerate(bitnfa.succ[source]):
            for target in range(bitnfa.n):
                if targets >> target & 1:
                    builder.add_transition(target, bitnfa.alphabet.symbol(symbol_id), source)
        for target in range(bitnfa.n):
            if bitnfa.eps[source] >> target & 1:
                builder.add_epsilon(target, source)
    return builder.build(bitnfa.accepting, bitnfa.initial, bitnfa.alphabet)


def _as_nfa(bitdfa):
    builder = BitNFABuilder()
    for _ in range(bitdfa.n):
        builder.add_state()
    for source, symbol_, target in bitdfa.moves():
        builder.add_transition(source, symbol_, target)
    return builder.build(1 << bitdfa.initial, bitdfa.accepting, bitdfa.alphabet)


def brzozowski_states(bitnfa) -> int:
    """States of the minimal *total* DFA, by double reversal.

    ``determinize(reverse(determinize(reverse(A))))`` is the minimal
    trim DFA of ``L(A)``; the total one adds a dead sink when that DFA
    is partial, and is a lone sink when the language is empty.
    """
    trim = determinize_bitset(_reverse(_as_nfa(determinize_bitset(_reverse(bitnfa)))))
    if not trim.accepting:
        return 1
    return trim.n + (1 if -1 in trim.delta else 0)


def assert_minimal_witness(witness, qualifies):
    """``witness`` qualifies and no length-lex-smaller bounded word does;
    ``None`` means no bounded word qualifies."""
    if witness is not None:
        assert qualifies(witness), witness
    for word in _words():
        if witness is not None and (len(word), word) >= (len(witness), witness):
            break
        assert not qualifies(word), (word, witness)


@given(nfas())
@settings(max_examples=_examples(150), deadline=None)
def test_determinize_language_equivalence(raw):
    dfa = determinize_bitset(raw.kernel())
    for word in _words():
        assert dfa.accepts(word) == raw.accepts(word), word


@given(nfas())
@settings(max_examples=_examples(100), deadline=None)
def test_minimized_state_counts_agree(raw):
    bitnfa = raw.kernel()
    minimal = minimize_bitset(determinize_bitset(bitnfa))
    assert minimal.n == brzozowski_states(bitnfa)
    assert -1 not in minimal.delta  # total
    for word in _words():
        assert minimal.accepts(word) == raw.accepts(word), word


@given(nfas())
@settings(max_examples=_examples(100), deadline=None)
def test_outputs_are_bfs_numbered(raw):
    dfa = determinize_bitset(raw.kernel())
    assert is_bfs_numbered(dfa)
    assert is_bfs_numbered(minimize_bitset(dfa))


@given(nfas(), nfas())
@settings(max_examples=_examples(100), deadline=None)
def test_inclusion_counterexamples_agree(left, right):
    witness = bitset_difference_counterexample(
        determinize_bitset(left.kernel()), determinize_bitset(right.kernel())
    )
    assert_minimal_witness(
        witness, lambda word: left.accepts(word) and not right.accepts(word)
    )


@given(nfas(), nfas())
@settings(max_examples=_examples(100), deadline=None)
def test_lifted_inclusion_counterexamples_agree(left, right):
    # The subsystem-usage reading: the right side, projected onto fewer
    # symbols, ignores every symbol outside its alphabet.
    keep = ALPHABET[:2]
    projected = right.projected(keep)
    witness = bitset_difference_counterexample(
        determinize_bitset(left.kernel()),
        determinize_bitset(project_bitnfa(right.kernel(), keep)),
        foreign="lift",
    )

    def qualifies(word):
        seen = tuple(symbol_ for symbol_ in word if symbol_ in keep)
        return left.accepts(word) and not projected.accepts(seen)

    assert_minimal_witness(witness, qualifies)


@given(nfas(), nfas())
@settings(max_examples=_examples(100), deadline=None)
def test_intersection_counterexamples_agree(left, right):
    witness = bitset_intersection_counterexample(
        determinize_bitset(left.kernel()), determinize_bitset(right.kernel())
    )
    assert_minimal_witness(
        witness, lambda word: left.accepts(word) and right.accepts(word)
    )


@given(nfas())
@settings(max_examples=_examples(75), deadline=None)
def test_counterexample_words_are_accepted(raw):
    """Against the empty language, the difference witness is the
    shortest accepted word."""
    dfa = determinize_bitset(raw.kernel())
    empty = determinize_bitset(BitNFABuilder().build(0, 0, Alphabet(ALPHABET)))
    witness = bitset_difference_counterexample(dfa, empty)
    assert_minimal_witness(witness, raw.accepts)


# ----------------------------------------------------------------------
# Regex-built automata against the regex
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


A, B, C = (symbol(name) for name in ALPHABET)


def _nodes(regex: Regex) -> int:
    if isinstance(regex, (Concat, Union)):
        return 1 + _nodes(regex.left) + _nodes(regex.right)
    if isinstance(regex, Star):
        return 1 + _nodes(regex.inner)
    return 1


@given(regexes())
@settings(max_examples=_examples(150), deadline=None)
def test_direct_thompson_matches_classic(regex):
    """Two states per regex node (the classic construction's count) and
    the regex's language, by derivative matching."""
    nfa = thompson_bitnfa(regex, ALPHABET)
    assert nfa.n == 2 * _nodes(regex)
    dfa = determinize_bitset(nfa)
    assert is_bfs_numbered(dfa)
    for word in _words():
        expected = matches(regex, word)
        assert nfa.accepts(word) == expected, word
        assert dfa.accepts(word) == expected, word


@given(regexes())
# A regex whose minimal DFA would be numbered differently depth-first.
@example(Union(Concat(A, B), Concat(B, Concat(C, C))))
@settings(max_examples=_examples(75), deadline=None)
def test_state_elimination_returns_an_equivalent_regex(regex):
    minimal = minimize_bitset(determinize_bitset(thompson_bitnfa(regex, ALPHABET)))
    assert is_bfs_numbered(minimal)
    assert equivalent(bitdfa_to_regex(minimal), regex)


@given(regexes(), regexes())
# The two regexes first disagree on words of length 6, past BOUND.
@example(
    Concat(A, Concat(A, Concat(A, Concat(A, Concat(B, C))))),
    Concat(A, Concat(A, Concat(A, Concat(A, Concat(B, B))))),
)
# Two shortest witnesses in one direction: the tie goes to "ab".
@example(Concat(A, Union(C, B)), EMPTY)
@settings(max_examples=_examples(100), deadline=None)
def test_witnesses_match_the_unbounded_regex_search(left, right):
    """Length-lex minimality with no length bound: the lesser of the two
    difference witnesses is the first disagreement that the breadth-first
    derivative search over the regex pair reaches."""
    dfas = [determinize_bitset(thompson_bitnfa(r, ALPHABET)) for r in (left, right)]
    witnesses = [
        witness
        for witness in (
            bitset_difference_counterexample(dfas[0], dfas[1]),
            bitset_difference_counterexample(dfas[1], dfas[0]),
        )
        if witness is not None
    ]
    least = min(witnesses, key=lambda word: (len(word), word), default=None)
    assert least == counterexample(left, right)


# ----------------------------------------------------------------------
# Spec automata against the runtime monitor's spec table
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

#: Words checked per spec automaton (the bound shrinks as the
#: alphabet grows).
SPEC_WORDS = 2_000


def _workload_source(shape, correct) -> str:
    claim = lifecycle_claim(shape) if correct else None
    return module_source(shape, correct=correct, claim=claim)


def _sources() -> dict[str, str]:
    """The golden's source keys: paper listings, then workload modules."""
    sources = dict(PAPER_SOURCES)
    for index, (shape, correct) in enumerate(WORKLOAD_SHAPES):
        sources[f"workload{index}"] = _workload_source(shape, correct)
    return sources


def test_spec_automata_match_the_spec_table():
    import random

    sources = list(_sources().values())
    sources += [base_class_source("Gen", 2 + i % 6, random.Random(i)) for i in range(30)]
    checked = 0
    for source in sources:
        module, _ = parse_module(source)
        for parsed in module.classes:
            spec = ClassSpec.of(parsed)
            names = spec.operation_names()
            if len(set(names)) != len(names):
                continue  # the table has its own rule for a repeated name
            for prefix in ("", "field."):
                dfa = determinize_bitset(spec.bitnfa(prefix))
                for count, word in enumerate(words_up_to(dfa.alphabet, 12)):
                    if count == SPEC_WORDS:
                        break
                    expected = spec_table_accepts(spec, word, prefix)
                    assert dfa.accepts(word) == expected, (parsed.name, prefix, word)
                    checked += 1
    assert checked > 100_000


# ----------------------------------------------------------------------
# Goldens: paper listings and workload generators
# ----------------------------------------------------------------------


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _flat_digest(bitnfa) -> str:
    """Digest of the determinized automaton as flat arrays: symbols in id
    order, state count, row-major ``delta`` (-1 = no move), initial
    state and accepting ids."""
    dfa = determinize_bitset(bitnfa)
    flat = {
        "symbols": list(dfa.alphabet.symbols),
        "n": dfa.n,
        "delta": list(dfa.delta),
        "initial": dfa.initial,
        "accepting": list(dfa.accepting_states()),
    }
    return _digest(json.dumps(flat, sort_keys=True))


def _golden_classes():
    for key, source in _sources().items():
        module, _violations = parse_module(source)
        for parsed in module.classes:
            yield GOLDEN["classes"][f"{key}/{parsed.name}"], parsed


def test_behavior_matches_classic_construction():
    for golden, parsed in _golden_classes():
        nfa = behavior_nfa(parsed)
        assert nfa.n == golden["behavior_states"], parsed.name
        assert _flat_digest(nfa) == golden["behavior_dfa"], parsed.name


def test_minimized_dfa_round_trip_preserves_language():
    for golden, parsed in _golden_classes():
        nfa = behavior_nfa(parsed)
        dfa = determinize_bitset(nfa)
        minimal = minimize_bitset(dfa)
        assert minimal.n == golden["behavior_minimal_states"], parsed.name
        assert minimal.n == brzozowski_states(nfa), parsed.name
        assert bitset_equivalent(minimal, dfa), parsed.name


def test_spec_automata_match_classic_construction():
    for golden, parsed in _golden_classes():
        spec = ClassSpec.of(parsed)
        for prefix in ("", "field."):
            assert _flat_digest(spec.bitnfa(prefix)) == golden[f"spec_dfa[{prefix}]"], (
                parsed.name,
                prefix,
            )


def test_budget_trips_match_the_oracle():
    """Every paper class under every state budget up to its behavior
    size + 40: the same report, or the same trip message (what
    ``ENGINE BUDGET`` prints), as the golden table."""

    def outcome(parsed, specs, max_states):
        try:
            result, _dfa = check_parsed_class(
                parsed, specs, limits=Limits(max_states=max_states)
            )
        except BudgetExceeded as trip:
            return ["budget", str(trip)]
        return ["report", _digest(result.format())]

    for key, source in PAPER_SOURCES.items():
        module, violations = parse_module(source)
        specs = Checker(module, violations).specs
        for parsed in module.classes:
            golden = GOLDEN["budget_trips"][f"{key}/{parsed.name}"]
            assert len(golden) == behavior_nfa(parsed).n + 40
            for max_states, expected in enumerate(golden, start=1):
                assert outcome(parsed, specs, max_states) == expected, (
                    parsed.name,
                    max_states,
                )


def test_paper_reports_byte_identical_across_kernels():
    for key, source in PAPER_SOURCES.items():
        assert check_source(source).format() == GOLDEN["reports"][key], key


def test_workload_reports_byte_identical_across_kernels():
    for index, (shape, correct) in enumerate(WORKLOAD_SHAPES):
        report = check_source(_workload_source(shape, correct)).format()
        assert report == GOLDEN["reports"][f"workload{index}"], (shape, correct)
