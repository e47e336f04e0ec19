"""The sinks: JSONL event log, metrics JSON, Prometheus exposition."""

import json

from repro.obs import (
    TRACE_SCHEMA,
    Tracer,
    metrics_payload,
    prometheus_text,
    trace_lines,
    write_metrics_json,
    write_trace_jsonl,
)
from repro.obs.sinks import Family, render


def _small_trace() -> Tracer:
    tracer = Tracer(clock=iter(range(100)).__next__)
    with tracer.span("run", "run"):
        with tracer.span("wave", "wave-0") as wave:
            tracer.event("retry", cls="Device", attempt=1)
            span = wave.child("class", "Device", seconds=0.5, status="ok")
            span.child("phase", "infer", seconds=0.25, status="ok")
    return tracer


class TestTraceJsonl:
    def test_header_then_spans_in_dfs_order(self):
        lines = trace_lines(_small_trace())
        assert lines[0] == {
            "type": "meta",
            "schema": TRACE_SCHEMA,
            "counters": {"event.retry": 1},
        }
        spans = [line for line in lines if line["type"] == "span"]
        assert [s["name"] for s in spans] == [
            "root", "run", "wave-0", "Device", "infer",
        ]
        assert [s["id"] for s in spans] == list(range(5))
        # Parent ids reference earlier spans only.
        assert all(
            s["parent"] is None or s["parent"] < s["id"] for s in spans
        )

    def test_events_follow_their_span(self):
        lines = trace_lines(_small_trace())
        wave_index = next(
            i for i, line in enumerate(lines)
            if line["type"] == "span" and line["name"] == "wave-0"
        )
        event = lines[wave_index + 1]
        assert event["type"] == "event"
        assert event["span"] == lines[wave_index]["id"]
        assert event["name"] == "retry"

    def test_file_round_trips_as_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        count = write_trace_jsonl(_small_trace(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == count
        for line in lines:
            json.loads(line)


class TestMetricsPayload:
    def test_is_a_strict_superset_of_the_engine_summary(self):
        engine = {"classes": 3, "cache": {"class_hits": 1}, "jobs": 4}
        payload = metrics_payload(engine, _small_trace())
        for key, value in engine.items():
            assert payload[key] == value
        assert payload["obs"]["schema"] == TRACE_SCHEMA
        assert payload["obs"]["phases"]["infer"] == {
            "seconds": 0.25, "calls": 1,
        }
        assert payload["obs"]["counters"] == {"event.retry": 1}
        assert payload["obs"]["spans"] == 4

    def test_written_file_is_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics_json(metrics_payload({"classes": 1}, None), path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text)["obs"] == {"schema": TRACE_SCHEMA}


class TestPrometheus:
    def test_families_and_labels(self):
        payload = metrics_payload(
            {
                "classes": 2,
                "waves": 1,
                "jobs": 4,
                "wall_seconds": 0.5,
                "cache": {"class_hits": 1, "class_misses": 1},
                "supervisor": {"retries": 3},
            },
            _small_trace(),
        )
        text = prometheus_text(payload)
        assert text.endswith("\n")
        assert "# TYPE repro_classes gauge" in text
        assert "repro_classes 2" in text
        assert 'repro_cache_events_total{kind="class_hits"} 1' in text
        assert 'repro_supervisor_events_total{kind="retries"} 3' in text
        assert 'repro_phase_seconds_total{phase="infer"} 0.25' in text
        assert 'repro_phase_calls_total{phase="infer"} 1' in text

    def test_store_family_from_store_section(self):
        text = prometheus_text(
            {
                "store": {
                    "checksum_failures": 2,
                    "lock_timeouts": 1,
                    "lock_wait_seconds": 0.125,
                    "state_generation": 7,
                }
            }
        )
        assert 'repro_store_events_total{kind="checksum_failures"} 2' in text
        assert 'repro_store_events_total{kind="lock_timeouts"} 1' in text
        assert "repro_store_lock_wait_seconds_total 0.125" in text
        assert "# TYPE repro_store_state_generation gauge" in text
        assert "repro_store_state_generation 7" in text

    def test_store_family_absent_without_store_section(self):
        assert "repro_store_" not in prometheus_text({"classes": 1})

    def test_label_values_are_escaped(self):
        assert (
            'kind="class_hits"'
            in prometheus_text({"cache": {"class_hits": 0}})
        )
        # Quote, backslash and newline, through the one renderer:
        family = Family("f", "gauge", "Help.", lambda value: [(value, 1)])
        assert render("p", (family,), 'a"b\\c\nd').splitlines()[-1] == (
            'p_f{kind="a\\"b\\\\c\\nd"} 1'
        )
