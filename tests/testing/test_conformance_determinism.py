"""Conformance harness: determinism, and the outcome boundary.

The three-way classification is load-bearing for the miner (INFEASIBLE
sequences truncate the corpus, VIOLATIONs become notes), so each branch
of :func:`repro.testing.conformance.run_sequence` gets an explicit
boundary test:

* mid-run :class:`OrderViolationError`          → INFEASIBLE
* :class:`IncompleteLifecycleError` at finalize → INFEASIBLE
* :class:`SpecMismatchError`                    → VIOLATION
* any other exception from an operation body    → VIOLATION
"""

from repro.core.spec import ClassSpec
from repro.frontend.parse import parse_module
from repro.runtime.monitor import monitored
from repro.testing.conformance import (
    Outcome,
    check_conformance,
    generate_suite,
    run_sequence,
)
from tests.automata.machines import spec_table_accepts

# Two exit points on ``poll``: the static model over-approximates, so an
# implementation that always takes one exit renders suite sequences
# assuming the other exit infeasible (not faulty) — the §2 boundary.
GATE_SOURCE = '''
from repro.frontend.decorators import sys, op_initial, op_final

@sys
class Gate:
    @op_initial
    def poll(self):
        if self.ready:
            return ["fire"]
        return ["poll"]

    @op_final
    def fire(self):
        return ["poll"]
'''


def gate_spec() -> ClassSpec:
    module, _violations = parse_module(GATE_SOURCE)
    return ClassSpec.of(module.get_class("Gate"))


def make_impl(poll_returns, fire_raises=None):
    """A fresh (unmonitored) Gate implementation per call.

    ``monitored`` rewrites the class in place, so sharing one class
    between tests would leak monitor state across them.
    """

    class Gate:
        def poll(self):
            return list(poll_returns)

        def fire(self):
            if fire_raises is not None:
                raise fire_raises
            return ["poll"]

    return Gate


class TestDeterminism:
    def test_suite_is_deterministic_across_parses(self):
        first = generate_suite(gate_spec())
        second = generate_suite(gate_spec())
        assert first == second
        assert first, "transition cover must be non-empty"
        # Every suite sequence is a complete lifecycle of the spec, by the
        # runtime monitor's reading of it.
        spec = gate_spec()
        assert all(spec_table_accepts(spec, sequence) for sequence in first)

    def test_suite_truncation_is_a_prefix(self):
        full = generate_suite(gate_spec())
        assert generate_suite(gate_spec(), max_sequences=1) == full[:1]

    def test_report_bytes_are_deterministic(self):
        reports = [
            check_conformance(
                monitored(make_impl(["fire"]), spec=gate_spec()),
                gate_spec(),
            )
            for _ in range(2)
        ]
        assert reports[0].format() == reports[1].format()
        assert reports[0].conformant


class TestOutcomeBoundary:
    def test_order_violation_midrun_is_infeasible(self):
        # poll always retries, so a sequence assuming the ``fire`` exit
        # diverts: the static model over-approximated, no fault.
        wrapped = monitored(make_impl(["poll"]), spec=gate_spec())
        result = run_sequence(wrapped, ("poll", "fire"))
        assert result.outcome is Outcome.INFEASIBLE
        assert "after poll" in result.detail

    def test_incomplete_lifecycle_at_finalize_is_infeasible(self):
        # The calls all execute, but the run ends mid-lifecycle: the
        # sequence was infeasible *as a complete lifecycle*.
        wrapped = monitored(make_impl(["fire"]), spec=gate_spec())
        result = run_sequence(wrapped, ("poll",))
        assert result.outcome is Outcome.INFEASIBLE
        assert "mid-lifecycle" in result.detail

    def test_spec_mismatch_is_violation(self):
        wrapped = monitored(make_impl(["undeclared"]), spec=gate_spec())
        result = run_sequence(wrapped, ("poll", "fire"))
        assert result.outcome is Outcome.VIOLATION
        assert "no declared exit point" in result.detail

    def test_unexpected_exception_is_violation(self):
        wrapped = monitored(
            make_impl(["fire"], fire_raises=RuntimeError("solenoid jammed")),
            spec=gate_spec(),
        )
        result = run_sequence(wrapped, ("poll", "fire"))
        assert result.outcome is Outcome.VIOLATION
        assert "unexpected RuntimeError: solenoid jammed" in result.detail


class TestVerdict:
    def test_infeasible_does_not_break_conformance(self):
        # Always-fires implementation: retry sequences are infeasible,
        # the straight-through ones pass — still conformant.
        report = check_conformance(
            monitored(make_impl(["fire"]), spec=gate_spec()), gate_spec()
        )
        assert report.count(Outcome.VIOLATION) == 0
        assert report.count(Outcome.PASSED) > 0
        assert report.conformant
        assert "CONFORMANT" in report.format()

    def test_stuck_implementation_passes_only_the_empty_lifecycle(self):
        # Never fires: every non-empty suite sequence is infeasible.
        # Only the empty lifecycle (start state is accepting) passes.
        report = check_conformance(
            monitored(make_impl(["poll"]), spec=gate_spec()), gate_spec()
        )
        passed = [r for r in report.results if r.outcome is Outcome.PASSED]
        assert [r.sequence for r in passed] == [()]
        assert all(
            r.outcome is Outcome.INFEASIBLE
            for r in report.results
            if r.sequence
        )

    def test_violation_is_never_conformant(self):
        report = check_conformance(
            monitored(make_impl(["undeclared"]), spec=gate_spec()),
            gate_spec(),
        )
        assert report.violations()
        assert not report.conformant
        assert "NOT CONFORMANT" in report.format()
