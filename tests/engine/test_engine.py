"""The batch engine: parity with the serial checker, caching, pooling."""

import pytest

from repro.core.checker import Checker
from repro.engine import (
    BatchVerifier,
    EngineError,
    InferenceCache,
    verify_path,
)
from repro.engine.fingerprint import class_key
from repro.engine.serialize import bitdfa_from_flat
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
    @pytest.mark.parametrize("correct", [True, False])
    def test_project_parity_serial(self, correct):
        module, violations = _parse(project_source(SHAPE, pairs=3, correct=correct))
        batch = BatchVerifier(module, violations, jobs=1).run()
        assert batch.merged().format() == _reference(module, violations)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_project_parity_parallel(self, jobs):
        module, violations = _parse(project_source(SHAPE, pairs=3, correct=False))
        batch = BatchVerifier(module, violations, jobs=jobs).run()
        assert batch.merged().format() == _reference(module, violations)

    def test_single_module_with_claim(self):
        source = module_source(SHAPE, claim=lifecycle_claim(SHAPE))
        module, violations = _parse(source)
        batch = BatchVerifier(module, violations, jobs=2).run()
        assert batch.merged().format() == _reference(module, violations)
        assert batch.ok

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
            module, violations, cache=InferenceCache(tmp_path)
        ).run()
        assert warm.metrics.fully_cached
        assert warm.metrics.class_hits == 6
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

    def test_cached_behavior_dfa_for_composites(self, tmp_path):
        module, violations = _parse(project_source(SHAPE, pairs=1))
        cache = InferenceCache(tmp_path)
        BatchVerifier(module, violations, cache=cache).run()
        classes = {parsed.name: parsed for parsed in module.classes}

        def entry(name):
            return cache.get("class", class_key(classes[name], classes))

        composite = bitdfa_from_flat(entry("Controller0")["dfa_flat"])
        assert composite.accepts(())  # behavior always accepts the empty trace
        # Base-class checks never determinize, so no DFA is stored.
        assert entry("Device0")["dfa_flat"] is None

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


class TestProcessExecutor:
    def test_process_pool_parity(self):
        module, violations = _parse(project_source(SHAPE, pairs=2))
        batch = BatchVerifier(
            module, violations, jobs=2, executor="process"
        ).run()
        assert batch.merged().format() == _reference(module, violations)
        assert batch.metrics.executor == "process"


class TestVerifyPath:
    def test_file(self, tmp_path):
        target = tmp_path / "plant.py"
        target.write_text(module_source(SHAPE))
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
