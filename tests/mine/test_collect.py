"""The trace-corpus collector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import ClassSpec
from repro.frontend.parse import parse_module
from repro.mine.api import load_implementations
from repro.mine.collect import (
    CollectConfig,
    collect_corpus,
    random_lifecycles,
    transition_coverage,
)
from repro.mine.corpus import KIND_COVER, KIND_RANDOM, StepEvidence
from repro.runtime.monitor import allowed_now, call_operation, is_finalizable, monitored
from repro.workloads.hierarchy import HierarchyShape, module_source
from tests.mine.test_cli_mine import DOOR, LAMP
from tests.mine.test_mine_golden import FAULTY, TWIN

SHAPE = HierarchyShape(
    base_operations=3, subsystems=2, composite_operations=2, seed=21
)


@pytest.fixture()
def device():
    source = module_source(SHAPE, correct=True)
    module, _violations = parse_module(source)
    implementations = load_implementations(source)
    spec = ClassSpec.of(module.get_class("Device"))
    return implementations["Device"], spec


class TestCollect:
    def test_same_seed_same_corpus(self, device):
        implementation, spec = device
        config = CollectConfig(seed=77, random_runs=12)
        first = collect_corpus(implementation, spec, config=config)
        second = collect_corpus(implementation, spec, config=config)
        assert first.to_payload() == second.to_payload()

    def test_different_seeds_differ(self, device):
        implementation, spec = device
        first = collect_corpus(
            implementation, spec, config=CollectConfig(seed=1, random_runs=16)
        )
        second = collect_corpus(
            implementation, spec, config=CollectConfig(seed=2, random_runs=16)
        )
        assert first.to_payload() != second.to_payload()

    def test_covering_suite_gives_full_coverage(self, device):
        implementation, spec = device
        corpus = collect_corpus(
            implementation, spec, config=CollectConfig(random_runs=0)
        )
        assert transition_coverage(spec, corpus) == 1.0
        assert all(sample.kind == KIND_COVER for sample in corpus)
        assert not corpus.notes

    def test_evidence_probes_every_prefix(self, device):
        implementation, spec = device
        corpus = collect_corpus(
            implementation, spec, config=CollectConfig(random_runs=4)
        )
        for sample in corpus:
            assert len(sample.evidence) == len(sample.word) + 1
            if sample.completed:
                assert sample.evidence[-1].final is True
        kinds = {sample.kind for sample in corpus}
        assert kinds == {KIND_COVER, KIND_RANDOM}

    def test_recorder_detached_after_collection(self, device):
        from repro.runtime.monitor import _RECORDER_ATTR, monitored

        implementation, spec = device
        wrapped = monitored(implementation, spec=spec)
        collect_corpus(implementation, spec, config=CollectConfig(random_runs=2))
        assert getattr(wrapped, _RECORDER_ATTR) is None

    def test_spec_mismatch_recorded_as_note(self):
        """A conformance fault mid-collection becomes a corpus note, not
        a crash — the run is truncated and mining continues."""
        declared = '''
from repro.frontend.decorators import sys, op_initial_final

@sys
class Liar:
    @op_initial_final
    def go(self):
        return []
'''
        module, _violations = parse_module(declared)
        spec = ClassSpec.of(module.get_class("Liar"))

        class LiarImpl:
            def go(self):
                return ["undeclared"]

        corpus = collect_corpus(
            LiarImpl, spec, config=CollectConfig(random_runs=2)
        )
        assert corpus.notes
        assert "spec mismatch" in corpus.notes[0]

    def test_crashing_operation_recorded_as_note(self):
        declared = '''
from repro.frontend.decorators import sys, op_initial_final

@sys
class Boom:
    @op_initial_final
    def go(self):
        return []
'''
        module, _violations = parse_module(declared)
        spec = ClassSpec.of(module.get_class("Boom"))

        class BoomImpl:
            def go(self):
                raise RuntimeError("hardware gone")

        corpus = collect_corpus(
            BoomImpl, spec, config=CollectConfig(random_runs=1)
        )
        assert any("crash in go" in note for note in corpus.notes)
        # The crashed call never reached the recorder: no word contains it.
        assert all(sample.word == () for sample in corpus)


class TestRandomLifecycles:
    def test_seeded_walks_deterministic(self, device):
        import random

        _implementation, spec = device
        first = random_lifecycles(spec, random.Random(5), runs=20, max_len=8)
        second = random_lifecycles(spec, random.Random(5), runs=20, max_len=8)
        assert first == second

    def test_walks_stay_in_spec_language(self, device):
        import random

        from repro.core.spec import START_BIT

        # Every step is one the runtime monitor's spec table allows.
        _implementation, spec = device
        for word in random_lifecycles(spec, random.Random(3), runs=30, max_len=10):
            states = START_BIT
            for symbol in word:
                assert symbol in spec.table.allowed(states), word
                states = spec.table.exits[symbol]


def _replayed_evidence(implementation: type, word) -> tuple:
    """Probe a fresh monitored instance at every prefix of ``word``."""
    instance = implementation()
    probes = [StepEvidence.of(allowed_now(instance), is_finalizable(instance))]
    for name in word:
        call_operation(instance, name)
        probes.append(StepEvidence.of(allowed_now(instance), is_finalizable(instance)))
    return tuple(probes)


def _assert_evidence_replays(source: str, config: CollectConfig) -> None:
    """Every stored evidence entry equals a direct probe of the monitor,
    so the collector's per-state evidence memo never serves a stale one."""
    module, _violations = parse_module(source)
    implementations = load_implementations(source)
    specs = {parsed.name: ClassSpec.of(parsed) for parsed in module.classes}
    for name, spec in specs.items():
        monitored(implementations[name], spec=spec)
    for name, spec in specs.items():
        corpus = collect_corpus(implementations[name], spec, config=config)
        for sample in corpus:
            assert _replayed_evidence(implementations[name], sample.word) == sample.evidence


@settings(max_examples=25, deadline=None)
@given(
    operations=st.integers(3, 7),
    subsystems=st.integers(1, 3),
    composites=st.integers(1, 3),
    shape_seed=st.integers(0, 10_000),
    seed=st.integers(0, 10_000),
)
def test_stored_evidence_is_what_the_monitor_says(
    operations, subsystems, composites, shape_seed, seed
):
    shape = HierarchyShape(operations, subsystems, composites, seed=shape_seed)
    _assert_evidence_replays(
        module_source(shape, correct=True), CollectConfig(seed=seed, random_runs=8)
    )


@pytest.mark.parametrize(
    "source", [TWIN, FAULTY, LAMP, DOOR], ids=["twin", "faulty", "lamp", "door"]
)
def test_stored_evidence_on_edge_sources(source):
    _assert_evidence_replays(source, CollectConfig(seed=3))
