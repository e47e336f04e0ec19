"""The incremental planner, state file, and splice path.

The differential harness (``test_incremental_differential.py``) pins
the global equation; this suite pins the *pieces*: the dirtiness rule
on hand-built edits, propagation termination on dependency cycles, the
state file's every failure mode falling back to a cold run, and the
quarantine contract (re-check the victim, spare its dependents).
"""

import json
from dataclasses import replace

import pytest

from repro.engine import faults, incremental, state, store
from repro.engine.engine import BatchVerifier, EngineError
from repro.engine.incremental import (
    named_subsystems,
    plan_incremental,
    snapshot_state,
    verify_incremental,
)
from repro.engine.state import (
    STATE_VERSION,
    ClassState,
    ProjectState,
    load_state,
    remove_state,
    save_state,
    state_path,
)
from repro.frontend.model_ast import ParsedModule
from repro.frontend.parse import parse_module


def base_source(name, pad=0, extra_step=False):
    lines = [""] * pad + [
        "@sys",
        f"class {name}:",
        "    @op_initial",
        "    def start(self):",
    ]
    if extra_step:
        lines += [
            "        return ['middle']",
            "    @op",
            "    def middle(self):",
            "        return ['stop']",
        ]
    else:
        lines += ["        return ['stop']"]
    lines += ["    @op_final", "    def stop(self):", "        return []"]
    return "\n".join(lines) + "\n"


def comp_source(name, dep, pad=0, middle=False):
    calls = ["        self.s0.start()"]
    if middle:
        calls.append("        self.s0.middle()")
    calls.append("        self.s0.stop()")
    lines = [""] * pad + [
        "@sys(['s0'])",
        f"class {name}:",
        "    def __init__(self):",
        f"        self.s0 = {dep}()",
        "    @op_initial_final",
        "    def run(self):",
        *calls,
        "        return []",
    ]
    return "\n".join(lines) + "\n"


def merge(named_sources):
    """Parse each class from its own source string (lineno-local edits)."""
    classes, violations = [], []
    for name in sorted(named_sources):
        module, file_violations = parse_module(
            named_sources[name], source_name=name
        )
        classes.extend(module.classes)
        violations.extend(file_violations)
    return ParsedModule(classes=tuple(classes), source_name="<inc>"), violations


def run_and_snapshot(named_sources, state_file):
    module, violations = merge(named_sources)
    return verify_incremental(module, violations, state_file=state_file)


class TestPlan:
    def test_no_state_is_a_cold_plan(self):
        module, _ = merge({"Base": base_source("Base")})
        plan = plan_incremental(module, None, cold_reason="first run")
        assert plan.cold and plan.cold_reason == "first run"
        assert plan.dirty == ("Base",) and plan.reused == ()

    def test_unchanged_project_reuses_everything(self, tmp_path):
        sources = {"Base": base_source("Base"), "Ctl": comp_source("Ctl", "Base")}
        state_file = tmp_path / "state.json"
        run_and_snapshot(sources, state_file)
        outcome = run_and_snapshot(sources, state_file)
        assert outcome.plan.dirty == ()
        assert outcome.plan.reused == ("Base", "Ctl")
        assert outcome.plan.reuse_ratio == 1.0

    def test_body_only_leaf_edit_does_not_cascade(self, tmp_path):
        state_file = tmp_path / "state.json"
        run_and_snapshot(
            {"Base": base_source("Base"), "Ctl": comp_source("Ctl", "Base")},
            state_file,
        )
        # Padding shifts the leaf's line numbers: fingerprint changes,
        # spec structure does not — the dependent must stay clean.
        outcome = run_and_snapshot(
            {"Base": base_source("Base", pad=2), "Ctl": comp_source("Ctl", "Base")},
            state_file,
        )
        assert outcome.plan.dirty == ("Base",)
        assert outcome.plan.changed == ("Base",)
        assert outcome.plan.spec_changed == ()
        assert outcome.plan.propagated == ()

    def test_spec_change_dirties_dependents_one_layer(self, tmp_path):
        state_file = tmp_path / "state.json"
        run_and_snapshot(
            {
                "Base": base_source("Base"),
                "Ctl": comp_source("Ctl", "Base"),
                "Meta": comp_source("Meta", "Ctl"),
            },
            state_file,
        )
        # A new operation changes Base's spec: Ctl (names Base) is
        # re-checked; Meta names Ctl, whose spec did not change, so the
        # dirtiness stops after one layer.
        outcome = run_and_snapshot(
            {
                "Base": base_source("Base", extra_step=True),
                "Ctl": comp_source("Ctl", "Base"),
                "Meta": comp_source("Meta", "Ctl"),
            },
            state_file,
        )
        assert outcome.plan.dirty == ("Base", "Ctl")
        assert outcome.plan.propagated == ("Ctl",)
        assert outcome.plan.propagated_via == {"Ctl": ("Base",)}
        assert "Meta" in outcome.plan.reused

    def test_removed_class_dirties_former_dependents(self, tmp_path):
        state_file = tmp_path / "state.json"
        run_and_snapshot(
            {"Base": base_source("Base"), "Ctl": comp_source("Ctl", "Base")},
            state_file,
        )
        outcome = run_and_snapshot(
            {"Ctl": comp_source("Ctl", "Base")}, state_file
        )
        assert outcome.plan.removed == ("Base",)
        assert outcome.plan.dirty == ("Ctl",)

    def test_class_appearing_under_dangling_name_dirties_dependents(
        self, tmp_path
    ):
        state_file = tmp_path / "state.json"
        run_and_snapshot({"Ctl": comp_source("Ctl", "Base")}, state_file)
        outcome = run_and_snapshot(
            {"Base": base_source("Base"), "Ctl": comp_source("Ctl", "Base")},
            state_file,
        )
        assert outcome.plan.added == ("Base",)
        assert set(outcome.plan.dirty) == {"Base", "Ctl"}

    def test_propagation_terminates_on_dependency_cycles(self, tmp_path):
        cycle = {
            "A": comp_source("A", "B"),
            "B": comp_source("B", "A"),
        }
        state_file = tmp_path / "state.json"
        run_and_snapshot(cycle, state_file)
        # A body-only edit of A must dirty exactly A: B keeps its spec,
        # so nothing travels the cycle and the worklist drains instead
        # of ping-ponging A → B → A forever.
        edited = dict(cycle)
        edited["A"] = comp_source("A", "B", middle=True)
        module, _ = merge(edited)
        previous, _ = load_state(state_file)
        plan = plan_incremental(module, previous)
        assert plan.dirty == ("A",)
        assert plan.propagated == ()

    def test_spec_change_in_cycle_dirties_both_and_terminates(self, tmp_path):
        state_file = tmp_path / "state.json"
        cycle = {"A": comp_source("A", "B"), "B": comp_source("B", "A")}
        run_and_snapshot(cycle, state_file)
        edited = {
            "A": comp_source("A", "B").replace("def run", "def go"),
            "B": comp_source("B", "A"),
        }
        module, _ = merge(edited)
        previous, _ = load_state(state_file)
        plan = plan_incremental(module, previous)
        assert plan.spec_changed == ("A",)
        assert plan.dirty == ("A", "B")
        assert plan.propagated == ("B",)

    def test_named_subsystems_keeps_dangling_names(self):
        module, _ = merge({"Ctl": comp_source("Ctl", "Ghost")})
        assert named_subsystems(module.classes[0]) == ("Ghost",)


class TestStateFile:
    def entry(self, name="Base"):
        return ClassState(
            name=name,
            fingerprint="f" * 64,
            spec="5" * 64,
            deps=("Dep",),
            diagnostics=(),
            wave=1,
            seconds=0.25,
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        state = ProjectState(classes={"Base": self.entry()}, source_name="x.py")
        save_state(path, state)
        loaded, reason = load_state(path)
        assert reason is None
        assert loaded.source_name == "x.py"
        assert loaded.classes["Base"] == self.entry()

    def test_missing_file(self, tmp_path):
        state, reason = load_state(tmp_path / "nope.json")
        assert state is None and "no state file" in reason

    def test_corrupt_json_falls_back(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("{truncated", encoding="utf-8")
        state, reason = load_state(path)
        assert state is None and "corrupt" in reason

    def test_bytes_that_are_not_utf8_fall_back(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_bytes(b'{"classes": "\xff"}')
        state, reason = load_state(path)
        assert state is None and "corrupt" in reason

    def test_stale_state_version_falls_back(self, tmp_path):
        path = tmp_path / "state.json"
        save_state(path, ProjectState(classes={"Base": self.entry()}))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["state_version"] = STATE_VERSION + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        state, reason = load_state(path)
        assert state is None and "state version" in reason

    def test_stale_fingerprint_version_falls_back(self, tmp_path):
        path = tmp_path / "state.json"
        save_state(path, ProjectState(classes={"Base": self.entry()}))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["fingerprint_version"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        state, reason = load_state(path)
        assert state is None and "stale fingerprint version" in reason

    def test_stale_fingerprint_version_means_cold_run(self, tmp_path):
        """The regression the ISSUE names: a version bump must not
        silently reuse digests whose meaning changed."""
        sources = {"Base": base_source("Base")}
        state_file = tmp_path / "state.json"
        run_and_snapshot(sources, state_file)
        payload = json.loads(state_file.read_text(encoding="utf-8"))
        payload["fingerprint_version"] = 999
        state_file.write_text(json.dumps(payload), encoding="utf-8")
        outcome = run_and_snapshot(sources, state_file)
        assert outcome.plan.cold
        assert "stale fingerprint version" in outcome.plan.cold_reason
        assert outcome.plan.dirty == ("Base",)
        # The fresh snapshot re-arms incremental runs.
        assert run_and_snapshot(sources, state_file).plan.reused == ("Base",)

    def test_malformed_entry_skipped_others_survive(self, tmp_path):
        path = tmp_path / "state.json"
        save_state(
            path,
            ProjectState(classes={"Good": self.entry("Good")}),
        )
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["classes"]["Bad"] = {"fingerprint": 42}
        # Re-seal: the mutation simulates a buggy writer, not torn bytes,
        # so the checksum must be consistent for the entry-level skip to
        # be what's under test.
        payload.pop(store.CHECKSUM_KEY, None)
        path.write_text(json.dumps(store.seal(payload)), encoding="utf-8")
        state, reason = load_state(path)
        assert reason is None
        assert set(state.classes) == {"Good"}

    def test_remove_state(self, tmp_path):
        path = tmp_path / "state.json"
        save_state(path, ProjectState())
        assert remove_state(path) is True
        assert remove_state(path) is False

    def test_state_path_is_colocated_with_cache(self, tmp_path):
        assert state_path(tmp_path) == tmp_path / "state.json"


class TestQuarantine:
    def test_quarantined_class_is_rechecked_without_dirtying_dependents(
        self, tmp_path, no_ambient_faults
    ):
        sources = {"Base": base_source("Base"), "Ctl": comp_source("Ctl", "Base")}
        state_file = tmp_path / "state.json"
        faults.install(faults.parse_faults("worker:raise:Base:times=9"))
        try:
            outcome = run_and_snapshot(sources, state_file)
        finally:
            faults.install(faults.FaultPlan(()))
        assert outcome.batch.quarantined() == ("Base",)
        # Digests were recorded, the verdict was not.
        assert outcome.state.classes["Base"].diagnostics is None
        assert outcome.state.classes["Ctl"].verified

        healthy = run_and_snapshot(sources, state_file)
        assert healthy.plan.dirty == ("Base",)
        assert healthy.plan.reasons["Base"] == "no usable stored verdict"
        assert healthy.plan.reused == ("Ctl",)
        cold = BatchVerifier(*merge(sources)).run()
        assert healthy.batch.merged().format() == cold.merged().format()

    def test_snapshot_marks_engine_diagnostics_unverified(self):
        module, violations = merge({"Base": base_source("Base")})
        faults.install(faults.parse_faults("worker:raise:Base:times=9"))
        try:
            batch = BatchVerifier(module, violations, retries=1).run()
        finally:
            faults.install(None)
        snapshot = snapshot_state(module, dict(batch.class_results))
        assert snapshot.classes["Base"].diagnostics is None


class TestSaveReread:
    """What a save keeps from the file it finds under the lock: a peer's
    write is decoded and merged; the file this run loaded is not decoded
    again, and merging against the loaded state writes the same bytes."""

    SOURCES = {"Base": base_source("Base"), "Ctl": comp_source("Ctl", "Base")}

    def quarantined_run(self, state_file):
        faults.install(faults.parse_faults("worker:raise:Base:times=9"))
        try:
            return run_and_snapshot(self.SOURCES, state_file)
        finally:
            faults.install(faults.FaultPlan(()))

    def test_peer_save_between_load_and_save_is_merged(
        self, tmp_path, monkeypatch, no_ambient_faults
    ):
        state_file = tmp_path / "state.json"
        self.quarantined_run(state_file)  # generation 1: Base unverified
        peer = run_and_snapshot(self.SOURCES, tmp_path / "peer.json").state
        real_save = incremental.save_state

        def peer_saves_first(path, snapshot, **kwargs):
            assert save_state(path, peer).generation == 2
            return real_save(path, snapshot, **kwargs)

        monkeypatch.setattr(incremental, "save_state", peer_saves_first)
        outcome = self.quarantined_run(state_file)
        assert outcome.batch.quarantined() == ("Base",)
        assert outcome.save.merged_classes == 1
        assert outcome.save.generation == 3
        on_disk, _ = load_state(state_file)
        assert on_disk.generation == 3
        assert on_disk.classes["Base"] == peer.classes["Base"]
        assert on_disk.classes["Base"].verified

    def test_unchanged_file_is_not_decoded_again(self, tmp_path, monkeypatch):
        path, twin = tmp_path / "state.json", tmp_path / "twin.json"
        run_and_snapshot(self.SOURCES, path)  # generation 1: both verified
        twin.write_bytes(path.read_bytes())
        loaded, _ = load_state(path)
        ours = ProjectState(
            classes={
                **loaded.classes,
                "Base": replace(loaded.classes["Base"], diagnostics=None),
            },
            source_name=loaded.source_name,
        )
        decoded = []
        real_decode = state._decode_state
        monkeypatch.setattr(
            state, "_decode_state", lambda raw: decoded.append(raw) or real_decode(raw)
        )
        skipped = save_state(path, ours, loaded=loaded)
        assert decoded == []
        reread = save_state(twin, ours)
        assert len(decoded) == 1
        assert (skipped.merged_classes, skipped.generation) == (1, 2)
        assert (reread.merged_classes, reread.generation) == (1, 2)
        assert path.read_bytes() == twin.read_bytes()

        decoded.clear()
        run_and_snapshot(self.SOURCES, path)  # the load decodes, the save not
        assert len(decoded) == 1


class TestVerifyIncremental:
    def test_unknown_only_name_is_an_engine_error(self):
        module, violations = merge({"Base": base_source("Base")})
        with pytest.raises(EngineError):
            BatchVerifier(module, violations, only=frozenset({"Nope"}))

    def test_write_state_false_leaves_no_file(self, tmp_path):
        module, violations = merge({"Base": base_source("Base")})
        state_file = tmp_path / "state.json"
        verify_incremental(
            module, violations, state_file=state_file, write_state=False
        )
        assert not state_file.exists()

    def test_metrics_report_reuse(self, tmp_path):
        sources = {"Base": base_source("Base"), "Ctl": comp_source("Ctl", "Base")}
        state_file = tmp_path / "state.json"
        run_and_snapshot(sources, state_file)
        warm = run_and_snapshot(sources, state_file)
        metrics = warm.batch.metrics
        assert metrics.incremental
        assert metrics.reused_verdicts == 2 and metrics.dirty_classes == 0
        assert metrics.reuse_ratio == 1.0
        assert {t.class_name for t in metrics.timings if t.from_state} == {
            "Base",
            "Ctl",
        }
        assert "incremental" in metrics.format()
        assert "[state]" in metrics.format()
        payload = metrics.to_dict()["incremental"]
        assert payload == {
            "enabled": True,
            "reused": 2,
            "dirty": 0,
            "reuse_ratio": 1.0,
        }

    def test_warm_waves_keep_cold_indices(self, tmp_path):
        sources = {
            "Base": base_source("Base"),
            "Ctl": comp_source("Ctl", "Base"),
            "Meta": comp_source("Meta", "Ctl"),
        }
        state_file = tmp_path / "state.json"
        run_and_snapshot(sources, state_file)
        edited = dict(sources)
        edited["Meta"] = comp_source("Meta", "Ctl", pad=1)
        outcome = run_and_snapshot(edited, state_file)
        by_name = {t.class_name: t for t in outcome.batch.metrics.timings}
        assert by_name["Meta"].wave == 2 and not by_name["Meta"].from_state
        assert by_name["Base"].wave == 0 and by_name["Base"].from_state
