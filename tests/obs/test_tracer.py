"""The tracing core: spans, events, counters, and the null fast path."""

import pickle

from repro.obs import NULL_TRACER, PHASES, STATUSES, Span, Tracer
from repro.obs.tracer import _NULL_SPAN


class TestSpans:
    def test_live_spans_nest_under_the_open_span(self):
        tracer = Tracer()
        with tracer.span("run", "run"):
            with tracer.span("wave", "wave-0"):
                with tracer.span("phase", "infer"):
                    pass
        (run,) = tracer.root.children
        (wave,) = run.children
        (phase,) = wave.children
        assert (run.kind, wave.kind, phase.kind) == ("run", "wave", "phase")

    def test_live_spans_measure_time(self):
        calls = iter([10.0, 10.25])
        tracer = Tracer(clock=lambda: next(calls))
        with tracer.span("phase", "infer"):
            pass
        assert tracer.root.children[0].seconds == 0.25

    def test_exception_marks_the_span_errored(self):
        tracer = Tracer()
        try:
            with tracer.span("phase", "infer"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert tracer.root.children[0].status == "error"

    def test_recorded_children_graft_without_a_clock(self):
        parent = Span("class", "Device")
        child = parent.child("phase", "infer", seconds=0.5, nfa_states=7)
        assert child.seconds == 0.5
        assert child.attrs == {"nfa_states": 7}
        assert parent.children == [child]

    def test_annotate_targets_the_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("phase", "determinize"):
            tracer.annotate(dfa_states=12)
        assert tracer.root.children[0].attrs == {"dfa_states": 12}

    def test_walk_is_depth_first(self):
        tracer = Tracer()
        with tracer.span("run", "run"):
            with tracer.span("wave", "w0"):
                pass
            with tracer.span("wave", "w1"):
                pass
        names = [span.name for span in tracer.root.walk()]
        assert names == ["root", "run", "w0", "w1"]


class TestEventsAndCounters:
    def test_events_attach_to_the_open_span_and_count(self):
        tracer = Tracer()
        with tracer.span("wave", "wave-0"):
            tracer.event("retry", cls="Device", attempt=1)
        (wave,) = tracer.root.children
        assert wave.events == [{"name": "retry", "cls": "Device", "attempt": 1}]
        assert tracer.counters == {"event.retry": 1}

    def test_counters_accumulate(self):
        tracer = Tracer()
        tracer.counter("lookups")
        tracer.counter("lookups", 2)
        assert tracer.counters == {"lookups": 3}


class TestPhaseAggregation:
    def test_phase_totals_is_picklable_and_sums_same_named_phases(self):
        tracer = Tracer()
        with tracer.span("phase", "infer"):
            tracer.annotate(nfa_states=5)
        with tracer.span("phase", "infer"):
            pass
        totals = pickle.loads(pickle.dumps(tracer.phase_totals()))
        assert set(totals) == {"infer"}
        assert totals["infer"]["attrs"] == {"nfa_states": 5}

    def test_phase_aggregate_counts_non_ok_records(self):
        tracer = Tracer()
        with tracer.span("wave", "wave-0") as wave:
            span = wave.child("class", "Device", status="cached")
            for phase in PHASES:
                span.child("phase", phase, status="cached")
        aggregate = tracer.phase_aggregate()
        assert set(aggregate) == set(PHASES)
        assert all(entry["calls"] == 1 for entry in aggregate.values())


class TestNullFastPath:
    def test_disabled_tracer_allocates_nothing(self):
        # The singleton contract: every call returns the same object, so
        # instrumented hot loops pay one method call and nothing else.
        spans = {id(NULL_TRACER.span("phase", "infer")) for _ in range(32)}
        assert spans == {id(_NULL_SPAN)}
        assert NULL_TRACER.enabled is False

    def test_null_span_swallows_the_whole_api(self):
        with NULL_TRACER.span("phase", "infer", big=1) as span:
            span.annotate(x=1)
            span.event("noise")
            assert span.child("phase", "nested") is span
        NULL_TRACER.event("noise")
        NULL_TRACER.counter("n")
        NULL_TRACER.annotate(y=2)
        assert NULL_TRACER.current is None

    def test_statuses_are_the_documented_vocabulary(self):
        assert STATUSES == ("ok", "cached", "skipped", "quarantined")
        assert PHASES == (
            "parse",
            "dependency",
            "infer",
            "determinize",
            "minimize",
            "usage",
            "claims",
            "vacuity",
        )
