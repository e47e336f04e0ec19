"""Flat bitset-DFA payloads must round-trip exactly (cache correctness).

Process-pool workers ship the behavior DFA back as flat int arrays; the
cache stores them under ``dfa_flat``.  The codec must be exact (same
language, same structure) and defensive (malformed payloads decode to a
cache miss, never a crash).
"""

import json

import pytest

from repro.automata.kernel import bitset_equivalent, determinize_bitset
from repro.core.behavior import behavior_nfa
from repro.core.checker import check_source
from repro.core.model_io import dump_dfa, load_dfa
from repro.engine import BatchVerifier, InferenceCache, cached_behavior_dfa
from repro.engine.fingerprint import class_key
from repro.engine.serialize import (
    FlatFormatError,
    bitdfa_from_flat,
    bitdfa_to_flat,
)
from repro.frontend.parse import parse_module
from repro.paper import SECTION_2_MODULE
from repro.workloads.hierarchy import HierarchyShape, project_source


def _behavior_bitdfas(source):
    module, _ = parse_module(source)
    for parsed in module.classes:
        yield determinize_bitset(behavior_nfa(parsed))


class TestFlatRoundTrip:
    def test_exact_round_trip(self):
        for bitdfa in _behavior_bitdfas(SECTION_2_MODULE):
            rebuilt = bitdfa_from_flat(bitdfa_to_flat(bitdfa))
            assert rebuilt.n == bitdfa.n
            assert rebuilt.delta == bitdfa.delta
            assert rebuilt.initial == bitdfa.initial
            assert rebuilt.accepting == bitdfa.accepting
            assert rebuilt.alphabet == bitdfa.alphabet

    def test_payload_survives_json(self):
        for bitdfa in _behavior_bitdfas(SECTION_2_MODULE):
            payload = json.loads(json.dumps(bitdfa_to_flat(bitdfa)))
            assert bitset_equivalent(bitdfa_from_flat(payload), bitdfa)

    def test_rejects_missing_keys(self):
        with pytest.raises(FlatFormatError):
            bitdfa_from_flat({"symbols": ["a"]})

    def test_rejects_out_of_range_transition(self):
        payload = {
            "symbols": ["a"],
            "n": 1,
            "delta": [7],
            "initial": 0,
            "accepting": [],
        }
        with pytest.raises(FlatFormatError):
            bitdfa_from_flat(payload)

    def test_rejects_out_of_range_accepting(self):
        payload = {
            "symbols": ["a"],
            "n": 1,
            "delta": [0],
            "initial": 0,
            "accepting": [3],
        }
        with pytest.raises(FlatFormatError):
            bitdfa_from_flat(payload)

    def test_rejects_duplicate_symbols(self):
        payload = {
            "symbols": ["a", "a"],
            "n": 1,
            "delta": [0, 0],
            "initial": 0,
            "accepting": [],
        }
        with pytest.raises(FlatFormatError):
            bitdfa_from_flat(payload)


class TestCachePayloads:
    SHAPE = HierarchyShape(base_operations=3, subsystems=2, seed=2)
    SOURCE = project_source(SHAPE, pairs=1)

    def _run(self, tmp_path):
        module, violations = parse_module(self.SOURCE)
        cache = InferenceCache(tmp_path)
        batch = BatchVerifier(module, violations, cache=cache).run()
        classes = {parsed.name: parsed for parsed in module.classes}
        return batch, cache, classes

    def test_bitset_run_stores_flat_payloads(self, tmp_path):
        _, cache, classes = self._run(tmp_path)
        composite = cached_behavior_dfa(cache, classes["Controller0"], classes)
        assert composite is not None
        assert composite.accepts(())
        assert cached_behavior_dfa(cache, classes["Device0"], classes) is None

    def test_cache_entries_carry_only_the_flat_payload(self, tmp_path):
        _, cache, classes = self._run(tmp_path)
        entry = cache.get(
            "class", class_key(classes["Controller0"], classes)
        )
        assert entry["dfa_flat"] is not None
        assert "dfa" not in entry

    def test_kernels_cache_language_equal_dfas(self, tmp_path):
        _, cache, classes = self._run(tmp_path)
        cached = cached_behavior_dfa(cache, classes["Controller0"], classes)
        fresh = determinize_bitset(behavior_nfa(classes["Controller0"]))
        assert cached == fresh

    def test_verdicts_identical_across_kernels(self, tmp_path):
        batch, _, _ = self._run(tmp_path)
        assert batch.merged().format() == check_source(self.SOURCE).format()


def test_worker_outcome_round_trips_through_processes():
    """A process-pool engine run: flat payloads must cross the pickle
    boundary and the run must stay green."""
    module, violations = parse_module(
        project_source(HierarchyShape(base_operations=3, subsystems=2, seed=4), pairs=1)
    )
    batch = BatchVerifier(module, violations, jobs=2, executor="process").run()
    assert batch.ok


def test_model_json_and_flat_round_trips_agree():
    """The model interchange JSON and the cache's flat arrays carry the
    same automaton."""
    for bitdfa in _behavior_bitdfas(SECTION_2_MODULE):
        via_flat = bitdfa_from_flat(bitdfa_to_flat(bitdfa))
        assert load_dfa(dump_dfa(bitdfa)) == via_flat
