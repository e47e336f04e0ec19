"""Span-tree stability: the golden guarantees of docs/observability.md.

The exported trace is a pure function of (project, cache temperature,
fault plan) — job count, executor choice and completion order must not
show through.  Durations are the one sanctioned difference, so every
comparison here strips the ``seconds`` fields and nothing else.
"""

import pytest

from repro.engine import faults
from repro.engine.cache import InferenceCache
from repro.engine.engine import BatchVerifier
from repro.engine.faults import parse_faults
from repro.frontend.parse import parse_module
from repro.obs import PHASES, Tracer, metrics_payload, trace_lines
from repro.workloads.hierarchy import HierarchyShape, layered_project_source


@pytest.fixture(scope="module")
def layered():
    source = layered_project_source(HierarchyShape(), depth=3)
    return parse_module(source, "layered.py")


def traced_run(layered, **kwargs) -> tuple[Tracer, object]:
    module, violations = layered
    tracer = Tracer()
    batch = BatchVerifier(module, violations, tracer=tracer, **kwargs).run()
    return tracer, batch


def sans_durations(tracer: Tracer) -> list[dict]:
    """The full JSONL export with the duration fields removed."""
    lines = []
    for line in trace_lines(tracer):
        line = dict(line)
        line.pop("seconds", None)
        lines.append(line)
    return lines


class TestJobCountInvariance:
    def test_jobs_1_and_jobs_4_export_identical_traces(
        self, layered, no_ambient_faults
    ):
        serial, _ = traced_run(layered, jobs=1)
        pooled, _ = traced_run(layered, jobs=4)
        assert sans_durations(serial) == sans_durations(pooled)

    def test_thread_and_process_executors_agree(
        self, layered, no_ambient_faults
    ):
        threaded, _ = traced_run(layered, jobs=2, executor="thread")
        processed, _ = traced_run(layered, jobs=2, executor="process")
        assert sans_durations(threaded) == sans_durations(processed)

    def test_every_class_carries_every_phase(self, layered, no_ambient_faults):
        tracer, batch = traced_run(layered, jobs=4)
        class_spans = [s for s in tracer.root.walk() if s.kind == "class"]
        assert len(class_spans) == batch.metrics.classes
        for span in class_spans:
            assert [c.name for c in span.children] == list(PHASES)
            assert all(c.kind == "phase" for c in span.children)


class TestCacheTemperature:
    def test_warm_run_has_the_same_shape_all_cached(
        self, layered, no_ambient_faults, tmp_path
    ):
        module, violations = layered
        cache = InferenceCache(tmp_path / "cache")
        cold = Tracer()
        BatchVerifier(module, violations, cache=cache, tracer=cold).run()

        warm_cache = InferenceCache(tmp_path / "cache")  # fresh memory layer
        warm = Tracer()
        BatchVerifier(module, violations, cache=warm_cache, tracer=warm).run()

        def shape(tracer):
            def strip(span):
                return (span.kind, span.name, tuple(map(strip, span.children)))
            return strip(tracer.root)

        assert shape(cold) == shape(warm)
        warm_classes = [s for s in warm.root.walk() if s.kind == "class"]
        assert warm_classes and all(s.status == "cached" for s in warm_classes)
        for span in warm_classes:
            assert [c.status for c in span.children] == ["cached"] * len(PHASES)

    def test_warm_runs_are_identical_to_each_other(
        self, layered, no_ambient_faults, tmp_path
    ):
        module, violations = layered
        BatchVerifier(
            module, violations, cache=InferenceCache(tmp_path / "cache")
        ).run()
        first = Tracer()
        BatchVerifier(
            module, violations,
            cache=InferenceCache(tmp_path / "cache"), tracer=first,
        ).run()
        second = Tracer()
        BatchVerifier(
            module, violations, jobs=4,
            cache=InferenceCache(tmp_path / "cache"), tracer=second,
        ).run()
        assert sans_durations(first) == sans_durations(second)


class TestFaultProfiles:
    def test_delay_profile_changes_nothing_but_durations(self, layered):
        faults.install(faults.FaultPlan(()))
        clean, _ = traced_run(layered, jobs=2)
        faults.install(parse_faults("worker:delay:*:arg=0.001"))
        delayed, _ = traced_run(layered, jobs=2)
        assert sans_durations(clean) == sans_durations(delayed)

    def test_quarantined_class_keeps_its_place_in_the_tree(self, layered):
        faults.install(parse_faults("worker:raise:Layer1"))
        tracer, batch = traced_run(layered, retries=0)
        assert batch.quarantined() == ("Layer1",)
        (span,) = [
            s for s in tracer.root.walk()
            if s.kind == "class" and s.name == "Layer1"
        ]
        assert span.status == "quarantined"
        assert [c.status for c in span.children] == ["quarantined"] * len(PHASES)
        # The quarantine shows up as a structured event on its wave.
        events = [
            e for s in tracer.root.walk() for e in s.events
            if e["name"] == "quarantine"
        ]
        assert events == [
            {"name": "quarantine", "cls": "Layer1", "kind": "crash"}
        ]
        # Healthy classes are untouched.
        healthy = [
            s for s in tracer.root.walk()
            if s.kind == "class" and s.name != "Layer1"
        ]
        assert healthy and all(s.status == "ok" for s in healthy)


class TestMetricsStability:
    def test_obs_section_is_job_count_invariant(
        self, layered, no_ambient_faults
    ):
        def obs_section(jobs):
            tracer, batch = traced_run(layered, jobs=jobs)
            payload = metrics_payload(batch.metrics.to_dict(), tracer)
            obs = payload["obs"]
            obs["phases"] = {
                name: entry["calls"] for name, entry in obs["phases"].items()
            }
            return obs

        assert obs_section(1) == obs_section(4)

    def test_per_class_rows_are_sorted_by_wave_then_name(
        self, layered, no_ambient_faults
    ):
        _, batch = traced_run(layered, jobs=4)
        rows = batch.metrics.to_dict()["per_class"]
        keys = [(row["wave"], row["class"]) for row in rows]
        assert keys == sorted(keys)

    def test_report_is_byte_identical_with_tracing_off_and_on(
        self, layered, no_ambient_faults
    ):
        module, violations = layered
        untraced = BatchVerifier(module, violations, jobs=2).run()
        traced = BatchVerifier(module, violations, jobs=2, tracer=Tracer()).run()
        assert untraced.merged().format() == traced.merged().format()
