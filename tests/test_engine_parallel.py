"""Satellite guarantees of the batch engine on the shipped examples.

Two properties the engine must never lose:

* **determinism under parallelism** — ``--jobs 4`` and ``--jobs 1``
  produce byte-identical diagnostics (wave scheduling + pure per-class
  checks make worker interleaving unobservable);
* **cache transparency** — a warm ``.repro-cache`` run answers every
  verdict from the cache (100% hits) with the report unchanged.
"""

from pathlib import Path

import pytest

from repro.core.checker import Checker
from repro.engine import BatchVerifier, InferenceCache
from repro.frontend.parse import parse_file

EXAMPLES = [
    Path(__file__).parent.parent / "examples" / "greenhouse_monitor.py",
    Path(__file__).parent.parent / "examples" / "wireless_fleet.py",
]


@pytest.fixture(params=EXAMPLES, ids=lambda p: p.stem)
def example(request):
    module, violations = parse_file(request.param)
    assert module.classes, f"{request.param} must define @sys classes"
    return module, violations


class TestParallelDeterminism:
    def test_jobs4_matches_jobs1_byte_for_byte(self, example):
        module, violations = example
        serial = BatchVerifier(module, violations, jobs=1).run()
        parallel = BatchVerifier(module, violations, jobs=4).run()
        assert parallel.merged().format() == serial.merged().format()
        assert [name for name, _ in parallel.class_results] == [
            name for name, _ in serial.class_results
        ]

    def test_jobs1_matches_plain_checker(self, example):
        module, violations = example
        reference = Checker(module, violations).check().format()
        assert BatchVerifier(module, violations).run().merged().format() == reference

    def test_repeated_parallel_runs_are_stable(self, example):
        module, violations = example
        reports = {
            BatchVerifier(module, violations, jobs=4).run().merged().format()
            for _ in range(5)
        }
        assert len(reports) == 1


class TestWarmCacheTransparency:
    def test_warm_run_hits_every_verdict(self, example, tmp_path):
        module, violations = example
        cold = BatchVerifier(
            module, violations, cache=InferenceCache(tmp_path)
        ).run()
        assert cold.metrics.class_hits == 0

        warm = BatchVerifier(
            module, violations, cache=InferenceCache(tmp_path)
        ).run()
        assert warm.metrics.fully_cached
        assert warm.metrics.class_hits == len(module.classes)
        assert warm.metrics.class_hit_rate == 1.0
        assert warm.metrics.cache_writes == 0
        assert warm.merged().format() == cold.merged().format()

    def test_warm_parallel_run_unchanged(self, example, tmp_path):
        module, violations = example
        cache_dir = tmp_path / "cache"
        cold = BatchVerifier(
            module, violations, jobs=4, cache=InferenceCache(cache_dir)
        ).run()
        warm = BatchVerifier(
            module, violations, jobs=4, cache=InferenceCache(cache_dir)
        ).run()
        assert warm.metrics.fully_cached
        assert warm.merged().format() == cold.merged().format()
