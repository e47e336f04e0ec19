"""The batch engine: module-level results, caching, validation, metrics.

Parity with the serial checker on every entry path lives in the
entry-path harness (``test_entry_paths.py``)."""

import json

import pytest

from repro.automata.kernel import determinize_bitset
from repro.core.behavior import behavior_nfa
from repro.core.checker import Checker
from repro.engine import (
    BatchVerifier,
    EngineError,
    InferenceCache,
    store,
    verify_path,
)
from repro.engine.cache import CACHE_VERSION
from repro.engine.fingerprint import class_key
from repro.frontend.parse import parse_module
from repro.workloads.hierarchy import (
    HierarchyShape,
    lifecycle_claim,
    module_source,
    project_files,
    project_source,
)

SHAPE = HierarchyShape(base_operations=4, subsystems=2, seed=13)


def _parse(source):
    return parse_module(source)


def _reference(module, violations):
    return Checker(module, violations).check().format()


class TestParityWithChecker:
    def test_subset_violations_surface_in_module_result(self):
        module, violations = _parse(
            "@sys\n"
            "class Odd:\n"
            "    @op_initial_final\n"
            "    def go(self):\n"
            "        with open('x'):\n"
            "            pass\n"
            "        return []\n"
        )
        assert violations
        batch = BatchVerifier(module, violations).run()
        assert batch.merged().format() == _reference(module, violations)
        assert not batch.module_result.ok

    def test_result_for(self):
        module, violations = _parse(project_source(SHAPE, pairs=2, correct=False))
        batch = BatchVerifier(module, violations).run()
        assert batch.result_for("Controller1") is not None
        assert not batch.result_for("Controller1").ok
        assert batch.result_for("Device0").ok
        assert batch.result_for("Nope") is None


class TestValidation:
    def test_rejects_zero_jobs(self):
        module, violations = _parse(module_source(SHAPE))
        with pytest.raises(EngineError):
            BatchVerifier(module, violations, jobs=0)

    def test_rejects_unknown_executor(self):
        module, violations = _parse(module_source(SHAPE))
        with pytest.raises(EngineError):
            BatchVerifier(module, violations, executor="greenlet")


class TestCacheIntegration:
    def test_warm_run_is_fully_cached_and_identical(self, tmp_path):
        module, violations = _parse(project_source(SHAPE, pairs=3))
        cold = BatchVerifier(
            module, violations, cache=InferenceCache(tmp_path)
        ).run()
        assert cold.metrics.class_hits == 0
        assert cold.metrics.class_misses == 6
        assert cold.metrics.cache_writes == 6  # one verdict per class

        warm = BatchVerifier(
            module, violations, jobs=2, cache=InferenceCache(tmp_path)
        ).run()
        assert warm.metrics.fully_cached
        assert warm.metrics.class_hits == 6
        assert warm.metrics.class_hit_rate == 1.0
        assert warm.metrics.cache_writes == 0
        assert warm.merged().format() == cold.merged().format()

    def test_method_layer_survives_class_edit(self, tmp_path):
        source = project_source(SHAPE, pairs=2)
        module, violations = _parse(source)
        BatchVerifier(module, violations, cache=InferenceCache(tmp_path)).run()

        # Append an unrelated trailing class: every original class keeps
        # its verdict; the new class still reuses nothing but also
        # invalidates nothing.
        extra = (
            "\n@sys\n"
            "class Appendix:\n"
            "    @op_initial_final\n"
            "    def go(self):\n"
            "        return []\n"
        )
        module2, violations2 = _parse(source + extra)
        second = BatchVerifier(
            module2, violations2, cache=InferenceCache(tmp_path)
        ).run()
        assert second.metrics.class_hits == 4
        assert second.metrics.class_misses == 1  # only Appendix

    def test_memory_only_cache_works_within_one_run(self):
        module, violations = _parse(project_source(SHAPE, pairs=2))
        cache = InferenceCache(None)
        first = BatchVerifier(module, violations, cache=cache).run()
        assert first.metrics.class_misses == 4
        second = BatchVerifier(module, violations, cache=cache).run()
        assert second.metrics.fully_cached

    def test_cache_entries_hold_only_the_verdict(self, tmp_path):
        module, violations = _parse(project_source(SHAPE, pairs=1))
        BatchVerifier(module, violations, cache=InferenceCache(tmp_path)).run()
        classes = {parsed.name: parsed for parsed in module.classes}
        on_disk = InferenceCache(tmp_path)
        for name, parsed in classes.items():
            entry = on_disk.get(class_key(parsed, classes))
            assert sorted(entry) == ["class", "diagnostics"]
            assert entry["class"] == name

    def test_entry_that_also_carries_a_dfa_is_a_hit(self, tmp_path):
        """Entries of the older shape also held the behavior DFA as flat
        arrays under ``dfa_flat``, in the same cache version: they are
        hits, never heals, and give the cold report."""
        module, violations = _parse(project_source(SHAPE, pairs=1))
        cold = BatchVerifier(
            module, violations, cache=InferenceCache(tmp_path)
        ).run()
        classes = {parsed.name: parsed for parsed in module.classes}
        for parsed in module.classes:
            flat = None
            if parsed.is_composite:
                dfa = determinize_bitset(behavior_nfa(parsed))
                flat = {
                    "symbols": list(dfa.alphabet.symbols),
                    "n": dfa.n,
                    "delta": list(dfa.delta),
                    "initial": dfa.initial,
                    "accepting": list(dfa.accepting_states()),
                }
            key = class_key(parsed, classes)
            path = tmp_path / "class" / key[:2] / f"{key}.json"
            payload = json.loads(path.read_text(encoding="utf-8"))["payload"]
            payload["dfa_flat"] = flat
            envelope = store.seal({"cache_version": CACHE_VERSION, "payload": payload})
            path.write_text(json.dumps(envelope, sort_keys=True), encoding="utf-8")
        warm = BatchVerifier(
            module, violations, cache=InferenceCache(tmp_path)
        ).run()
        assert warm.metrics.class_hits == len(classes)
        assert warm.metrics.corrupt_entries == 0
        assert warm.merged().format() == cold.merged().format()

    def test_corrupt_entry_heals_and_is_counted(self, tmp_path):
        module, violations = _parse(project_source(SHAPE, pairs=2))
        cold = BatchVerifier(
            module, violations, cache=InferenceCache(tmp_path)
        ).run()
        victim = next((tmp_path / "class").rglob("*.json"))
        victim.write_text("{ truncated")
        healed = BatchVerifier(
            module, violations, cache=InferenceCache(tmp_path)
        ).run()
        assert healed.metrics.corrupt_entries == 1
        assert healed.metrics.class_misses == 1  # only the corrupted class
        assert "cache healed          1 corrupt entry" in healed.metrics.format()
        assert healed.merged().format() == cold.merged().format()

    def test_fully_cached_is_false_for_empty_module(self):
        module, violations = _parse("x = 1\n")
        batch = BatchVerifier(module, violations, cache=InferenceCache(None)).run()
        assert not batch.metrics.fully_cached


class TestVerifyPath:
    def test_file(self, tmp_path):
        target = tmp_path / "plant.py"
        target.write_text(module_source(SHAPE, claim=lifecycle_claim(SHAPE)))
        batch = verify_path(target)
        assert batch.ok
        assert batch.metrics.classes == 2

    def test_directory_project(self, tmp_path):
        project_files(SHAPE, 3, tmp_path)
        batch = verify_path(tmp_path, jobs=2)
        assert batch.metrics.classes == 6
        assert batch.metrics.waves == 2
        assert batch.ok


class TestMetrics:
    def test_timings_cover_every_class(self):
        module, violations = _parse(project_source(SHAPE, pairs=3))
        batch = BatchVerifier(module, violations, jobs=2).run()
        metrics = batch.metrics
        assert {t.class_name for t in metrics.timings} == {
            parsed.name for parsed in module.classes
        }
        assert metrics.waves == 2
        assert {t.wave for t in metrics.timings} == {0, 1}
        assert metrics.class_hit_rate == 0.0
        text = metrics.format()
        assert "6 in 2 wave(s)" in text
        assert "[checked]" in text

    def test_to_dict_roundtrips_through_json(self):
        import json

        module, violations = _parse(project_source(SHAPE, pairs=2))
        metrics = BatchVerifier(module, violations).run().metrics
        assert json.loads(json.dumps(metrics.to_dict()))["classes"] == 4
