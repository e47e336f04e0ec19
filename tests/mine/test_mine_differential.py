"""Property-based round-trip: spec → monitored traces → mined model.

The differential farm checks fixed seeds; this suite lets Hypothesis
drive the workload shape and the collection seed, asserting the mining
pipeline's two contracts on every drawn instance:

* **soundness** — the mined automaton never accepts a word the
  specification rejects (checked both by kernel inclusion and by
  re-running enumerated mined words through the spec DFA, so the two
  acceptance paths cross-validate each other);
* **exact recovery** — when the collected corpus covers every static
  transition (always true for generated workloads: their operations are
  single-exit, so every static path is dynamically feasible), the mined
  automaton is equivalent to the static one, by two-way kernel inclusion
  and by minimized state count.
"""

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mine.api import mine_source
from repro.mine.collect import CollectConfig
from repro.workloads.hierarchy import HierarchyShape, module_source
from tests.automata.machines import spec_table_accepts

shapes = st.builds(
    HierarchyShape,
    base_operations=st.integers(min_value=2, max_value=4),
    subsystems=st.integers(min_value=1, max_value=2),
    composite_operations=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)


@settings(deadline=None, max_examples=25)
@given(shape=shapes, collect_seed=st.integers(min_value=0, max_value=10_000))
def test_round_trip_recovers_specification(shape, collect_seed):
    source = module_source(shape, correct=True)
    report = mine_source(
        source,
        source_name="<property>",
        config=CollectConfig(
            seed=collect_seed, random_runs=6, max_random_len=8
        ),
        diff=True,
    )
    assert len(report.results) == 2
    for result in report.results:
        assert not result.corpus.notes, result.corpus.notes
        diff = result.diff
        # Soundness, via the kernel inclusion search.
        assert diff.sound, (
            result.class_name,
            diff.unsound_witness,
        )
        # Soundness again, via direct word enumeration: no mined word
        # up to length 6 may be rejected by the runtime monitor's spec
        # table.  Cross-validates the kernel inclusion search with an
        # independent reading of the specification.
        from repro.core.spec import ClassSpec
        from repro.frontend.parse import parse_module

        module, _violations = parse_module(source)
        spec = ClassSpec.of(module.get_class(result.class_name))
        for word in islice(result.model.dfa.accepted_words(6), 200):
            assert spec_table_accepts(spec, word), (result.class_name, word)
        # Generated workloads are single-exit: the covering suite is
        # fully feasible, so coverage must be total...
        assert result.coverage == 1.0
        # ...and a transition-covering, evidence-carrying corpus makes
        # the learner recover the specification exactly.
        assert diff.equivalent, (result.class_name, diff.missed_witness)
        assert diff.mined_states == diff.static_states


@settings(deadline=None, max_examples=25)
@given(shape=shapes, collect_seed=st.integers(min_value=0, max_value=10_000))
def test_mined_accepts_every_observed_lifecycle(shape, collect_seed):
    """Whatever the merges did, no observed completed lifecycle (or
    finalizable prefix) may be rejected by the mined model."""
    source = module_source(shape, correct=True)
    report = mine_source(
        source,
        source_name="<property>",
        config=CollectConfig(
            seed=collect_seed, random_runs=8, max_random_len=10
        ),
        diff=False,
    )
    for result in report.results:
        for word in result.corpus.positive_words():
            assert result.model.accepts(word), (result.class_name, word)


@settings(deadline=None, max_examples=15)
@given(
    shape=shapes,
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_mining_is_a_pure_function_of_source_and_seed(shape, seed):
    source = module_source(shape, correct=True)
    config = CollectConfig(seed=seed, random_runs=5, max_random_len=6)
    first = mine_source(source, config=config, diff=True)
    second = mine_source(source, config=config, diff=True)
    assert first.format() == second.format()
    assert first.metrics()["mine"]["wall_seconds"] >= 0
    for left, right in zip(first.results, second.results):
        assert left.corpus.to_payload() == right.corpus.to_payload()
        assert left.model.dfa == right.model.dfa
