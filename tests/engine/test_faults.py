"""The deterministic fault-injection layer (repro.engine.faults)."""

import json

import pytest

from repro.engine import faults
from repro.engine.cache import InferenceCache
from repro.engine.faults import (
    FaultPlan,
    FaultRule,
    FaultSpecError,
    InjectedFault,
    WorkerKilled,
    parse_faults,
)


class TestSpecParsing:
    def test_minimal_rule(self):
        plan = parse_faults("worker:raise:Controller0")
        assert plan.rules == (
            FaultRule(site="worker", action="raise", pattern="Controller0"),
        )
        assert plan.seed == 0

    def test_full_grammar(self):
        plan = parse_faults(
            "seed=42;worker:delay:Device*:arg=0.25:times=3;"
            "cache-put:corrupt:class/*:p=0.5"
        )
        assert plan.seed == 42
        assert plan.rules[0] == FaultRule(
            site="worker", action="delay", pattern="Device*", arg=0.25, times=3
        )
        assert plan.rules[1] == FaultRule(
            site="cache-put", action="corrupt", pattern="class/*", p=0.5
        )

    def test_empty_segments_are_skipped(self):
        assert parse_faults(";;worker:raise:*;").rules != ()

    @pytest.mark.parametrize(
        "spec",
        [
            "worker:raise",  # missing pattern
            "nowhere:raise:*",  # unknown site
            "worker:explode:*",  # unknown action
            "worker:raise:*:zap=1",  # unknown parameter
            "worker:raise:*:times=soon",  # bad int
            "seed=tomorrow",  # bad seed
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(FaultSpecError):
            parse_faults(spec)

    @pytest.mark.parametrize(
        "site", ["serve-accept", "serve-dispatch", "serve-respond"]
    )
    def test_serve_sites_parse(self, site):
        plan = parse_faults(f"{site}:delay:*:arg=0.5")
        assert plan.rules[0].site == site

    def test_unknown_site_error_lists_the_valid_sites(self):
        with pytest.raises(FaultSpecError) as excinfo:
            parse_faults("nowhere:raise:*")
        message = str(excinfo.value)
        for site in faults.SITES:
            assert site in message

    def test_unknown_action_error_lists_the_valid_actions(self):
        with pytest.raises(FaultSpecError) as excinfo:
            parse_faults("worker:explode:*")
        message = str(excinfo.value)
        for action in faults.ACTIONS:
            assert action in message


class TestValidateEnvironment:
    """Eager REPRO_FAULTS validation at entry-point startup."""

    def test_unset_or_blank_env_returns_none(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        assert faults.validate_environment() is None
        monkeypatch.setenv(faults.FAULTS_ENV, "   ")
        assert faults.validate_environment() is None

    def test_valid_spec_returns_the_parsed_plan(self, monkeypatch):
        monkeypatch.setenv(
            faults.FAULTS_ENV, "serve-dispatch:raise:*:times=1"
        )
        plan = faults.validate_environment()
        assert plan is not None
        assert plan.rules[0].site == "serve-dispatch"

    def test_malformed_spec_raises_with_the_site_list(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "typo-site:raise:*")
        with pytest.raises(FaultSpecError) as excinfo:
            faults.validate_environment()
        assert "typo-site" in str(excinfo.value)
        assert "serve-dispatch" in str(excinfo.value)


class TestFiring:
    def test_raise_action(self):
        plan = parse_faults("worker:raise:Poison")
        with pytest.raises(InjectedFault):
            plan.fire("worker", "Poison")

    def test_pattern_and_site_must_match(self):
        plan = parse_faults("worker:raise:Poison")
        plan.fire("worker", "Healthy")  # no match: no fault
        plan.fire("cache-put", "Poison")  # wrong site: no fault
        assert plan.fired() == 0

    def test_times_bounds_firing(self):
        plan = parse_faults("worker:raise:*:times=2")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.fire("worker", "X")
        plan.fire("worker", "X")  # third evaluation: exhausted
        assert plan.fired() == 2

    def test_kill_in_thread_context_raises_worker_killed(self):
        # In the parent process there is no worker to _exit.
        plan = parse_faults("worker:kill:*")
        with pytest.raises(WorkerKilled):
            plan.fire("worker", "X")

    def test_delay_sleeps(self):
        import time

        plan = parse_faults("worker:delay:*:arg=0.05")
        started = time.perf_counter()
        plan.fire("worker", "X")
        assert time.perf_counter() - started >= 0.04

    def test_probability_is_deterministic(self):
        decisions = []
        for _run in range(2):
            plan = parse_faults("seed=7;worker:raise:*:p=0.5")
            run = []
            for i in range(20):
                try:
                    plan.fire("worker", f"C{i}")
                    run.append(False)
                except InjectedFault:
                    run.append(True)
            decisions.append(run)
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_seed_changes_decisions(self):
        def run(seed):
            plan = parse_faults(f"seed={seed};worker:raise:*:p=0.5")
            out = []
            for i in range(30):
                try:
                    plan.fire("worker", f"C{i}")
                    out.append(False)
                except InjectedFault:
                    out.append(True)
            return out

        assert run(1) != run(2)


class TestActivePlan:
    def test_install_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "worker:raise:FromEnv")
        plan = FaultPlan((FaultRule("worker", "raise", "FromInstall"),))
        faults.install(plan)
        assert faults.active_plan() is plan

    def test_env_plan_is_cached_with_counters(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "worker:raise:*:times=1")
        with pytest.raises(InjectedFault):
            faults.fire("worker", "X")
        # Same env value → same plan object → `times` already spent.
        faults.fire("worker", "X")
        assert faults.active_plan().fired() == 1

    def test_no_spec_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        assert faults.active_plan() is None
        faults.fire("worker", "X")  # no-op


class TestCorruptCacheEntry:
    def test_corrupt_at_put_truncates_the_file(self, tmp_path):
        faults.install(parse_faults("cache-put:corrupt:class/*"))
        cache = InferenceCache(tmp_path)
        cache.put("abcdef", {"v": 1})
        path = tmp_path / "class" / "ab" / "abcdef.json"
        with pytest.raises(ValueError):
            json.loads(path.read_text())
        # A fresh cache self-heals: miss, file deleted, stat counted.
        faults.install(None)
        fresh = InferenceCache(tmp_path)
        assert fresh.get("abcdef") is None
        assert fresh.stats.corrupt_entries == 1
        assert not path.exists()
