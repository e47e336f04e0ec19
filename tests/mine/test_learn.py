"""The evidence-gated RPNI learner."""

from itertools import islice

from repro.core.spec import ClassSpec
from repro.frontend.parse import parse_module
from repro.mine.api import load_implementations
from repro.mine.collect import CollectConfig, collect_corpus
from repro.mine.corpus import TraceCorpus, TraceSample
from repro.mine.learn import mine_corpus
from repro.mine.pta import PrefixTreeAcceptor
from repro.workloads.hierarchy import HierarchyShape, module_source


def workload_corpus(shape, class_name, seed=0):
    source = module_source(shape, correct=True)
    module, violations = parse_module(source)
    assert not [v for v in violations if v.severity == "error"]
    implementations = load_implementations(source)
    spec = ClassSpec.of(module.get_class(class_name))
    corpus = collect_corpus(
        implementations[class_name], spec, config=CollectConfig(seed=seed)
    )
    return corpus, spec


class TestLearner:
    def test_recovers_spec_exactly_on_covering_corpus(self):
        shape = HierarchyShape(
            base_operations=4, subsystems=2, composite_operations=2, seed=11
        )
        corpus, spec = workload_corpus(shape, "Device")
        model = mine_corpus(corpus)
        spec_dfa = spec.dfa()
        # Same language: every mined word is spec-accepted and every
        # spec word is mined-accepted, up to a bounding length.
        for word in islice(model.dfa.accepted_words(7), 300):
            assert spec_dfa.accepts(word), word
        for word in islice(spec_dfa.accepted_words(7), 300):
            assert model.accepts(word), word

    def test_accepts_every_positive_corpus_word(self):
        """Quotients preserve accepting paths: no observed completed
        lifecycle may be rejected, whatever the merges did."""
        shape = HierarchyShape(
            base_operations=3, subsystems=1, composite_operations=3, seed=2
        )
        for class_name in ("Device", "Controller"):
            corpus, _spec = workload_corpus(shape, class_name)
            model = mine_corpus(corpus)
            for word in corpus.positive_words():
                assert model.accepts(word), (class_name, word)

    def test_mined_is_deterministic(self):
        shape = HierarchyShape(
            base_operations=4, subsystems=1, composite_operations=2, seed=5
        )
        corpus, _spec = workload_corpus(shape, "Device", seed=9)
        first = mine_corpus(corpus)
        second = mine_corpus(corpus)
        assert first.dfa == second.dfa
        assert first.stats.to_dict() == second.stats.to_dict()

    def test_stats_account_for_compression(self):
        shape = HierarchyShape(
            base_operations=4, subsystems=1, composite_operations=1, seed=7
        )
        corpus, _spec = workload_corpus(shape, "Device")
        model = mine_corpus(corpus)
        stats = model.stats
        assert stats.pta_states == len(PrefixTreeAcceptor.from_corpus(corpus))
        assert stats.mined_states == model.dfa.n
        assert stats.mined_states <= stats.pta_states
        assert stats.merges_tested >= stats.merges_accepted
        # Mined states = promoted reds (+ root).
        assert stats.mined_states == stats.promotions + 1

    def test_failed_merge_rolls_back_cleanly(self):
        """A rejected fold must leave no trace: learning twice from the
        same PTA object would otherwise diverge."""
        shape = HierarchyShape(
            base_operations=5, subsystems=1, composite_operations=1, seed=13
        )
        corpus, _spec = workload_corpus(shape, "Device", seed=3)
        pta = PrefixTreeAcceptor.from_corpus(corpus)
        snapshot = [
            (dict(node.children), node.allowed, node.final)
            for node in pta.nodes
        ]
        model = mine_corpus(corpus)
        assert model.stats.merges_tested > model.stats.merges_accepted
        # The PTA itself is untouched (the learner works on a copy).
        assert snapshot == [
            (dict(node.children), node.allowed, node.final)
            for node in pta.nodes
        ]

    def test_word_outside_the_corpus_alphabet_is_kept(self):
        """A replayed corpus may read an event its alphabet omits; the
        mined DFA still accepts the observed lifecycle."""
        corpus = TraceCorpus(class_name="Pump", alphabet=("start",))
        corpus.add(TraceSample(word=("start", "stop"), completed=True))
        model = mine_corpus(corpus)
        assert model.accepts(("start", "stop"))
        assert "stop" in model.dfa.alphabet
