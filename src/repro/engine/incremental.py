"""Incremental re-verification against persistent project state.

The dominant real workload for a verification service is not the first
run of a project but the *re-run after a small edit*.  The pipeline is
compositional by construction — a class verdict is a pure function of
its own syntax plus the specification structure of the subsystem
classes it names, which is exactly what
:func:`repro.engine.fingerprint.class_key` hashes — so re-checking a
project after an edit should cost O(changed classes + affected
dependents), not O(project).

This module implements that contract on top of the batch engine:

1. :func:`plan_incremental` diffs the current parse against the last
   run's recorded state (:mod:`repro.engine.state`) and computes the
   **dirty set**;
2. :func:`verify_incremental` schedules only the dirty classes through
   the existing wave executor (``BatchVerifier(only=...)``, with waves
   pruned in place so indices stay stable) and splices the clean
   classes' stored verdicts back so the merged report is byte-identical
   to a cold run;
3. the run's outcome is snapshotted into a fresh state file for the
   next edit.

**The dirtiness rule.**  A class is re-checked iff

* its own full-syntax fingerprint changed (edited, added, renamed,
  rewired — any change to its source, line numbers included), or
* the *spec-structure digest* of any class it names as a subsystem
  changed — including a named class appearing or disappearing.

This is deliberately tighter than "any dependent edit": a body-only
edit of a leaf class changes its full fingerprint but not its spec
digest, so no dependent is re-checked and the dirty set is exactly
``{leaf}``.  Propagation runs over the *reverse* dependency edges as a
worklist; a dependent dirtied this way has an unchanged spec digest of
its own (its source did not change), so it propagates no further —
the worklist drains after one layer and terminates on arbitrary graphs,
dependency cycles included.

**Soundness.**  Reusing a stored verdict is sound because "own
fingerprint unchanged and every named subsystem's spec state unchanged"
implies the class's :func:`~repro.engine.fingerprint.class_key` is
unchanged, and the verdict is a pure function of that key (the
engine-parity property pinned by the PR-1 test suite).  See
docs/incremental.md for the full argument.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from repro.core.diagnostics import CheckResult
from repro.engine.engine import BatchResult, BatchVerifier
from repro.engine.fingerprint import class_fingerprint, spec_fingerprint
from repro.engine.metrics import ClassTiming
from repro.engine.scheduler import schedule
from repro.engine.serialize import diagnostics_from_list, diagnostics_to_list
from repro.engine.state import (
    ClassState,
    ProjectState,
    SaveReport,
    load_state,
    save_state,
)
from repro.frontend.model_ast import ParsedClass, ParsedModule, SubsetViolation


def named_subsystems(parsed: ParsedClass) -> tuple[str, ...]:
    """Every class name this class declares as a subsystem type, sorted.

    Unlike :func:`repro.engine.scheduler.subsystem_dependencies` this
    keeps names that are *not* defined in the module: the verdict key
    records missing dependencies too (``(missing X)``), so a class
    appearing under a previously-dangling name must dirty its
    dependents.
    """
    return tuple(sorted({decl.class_name for decl in parsed.subsystems}))


def _reverse_edges(module: ParsedModule) -> dict[str, list[str]]:
    """Named-subsystem name → in-module classes that name it (sorted)."""
    reverse: dict[str, list[str]] = {}
    for parsed in module.classes:
        for dependency in named_subsystems(parsed):
            reverse.setdefault(dependency, []).append(parsed.name)
    for dependents in reverse.values():
        dependents.sort()
    return reverse


def _usable_verdict(entry: ClassState) -> bool:
    """Does the stored verdict deserialize?  (Unverified entries don't.)"""
    if entry.diagnostics is None:
        return False
    try:
        diagnostics_from_list(list(entry.diagnostics))
    except Exception:  # noqa: BLE001 - any malformed payload means "no"
        return False
    return True


@dataclass(frozen=True)
class IncrementalPlan:
    """The diff between a parse and the recorded project state."""

    #: No usable state: every class is dirty and ``cold_reason`` says why.
    cold: bool
    cold_reason: str | None
    #: Classes to re-check, sorted (always ⊆ current class names).
    dirty: tuple[str, ...]
    #: Classes whose stored verdict is spliced without re-checking.
    reused: tuple[str, ...]
    #: The raw diff the dirty set was derived from.
    added: tuple[str, ...]
    removed: tuple[str, ...]
    changed: tuple[str, ...]
    #: Classes present in both runs whose spec-structure digest changed.
    spec_changed: tuple[str, ...]
    #: Classes dirty *only* because a named subsystem's spec state
    #: changed (the reverse-edge propagation layer).
    propagated: tuple[str, ...]
    #: Dirty class → human-readable reason (diagnostics and obs events).
    reasons: Mapping[str, str] = field(default_factory=dict)
    #: Propagated class → the spec-event sources that dirtied it.
    propagated_via: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def reuse_ratio(self) -> float:
        total = len(self.dirty) + len(self.reused)
        return len(self.reused) / total if total else 0.0


def _cold_plan(module: ParsedModule, reason: str) -> IncrementalPlan:
    names = tuple(sorted(module.class_names()))
    return IncrementalPlan(
        cold=True,
        cold_reason=reason,
        dirty=names,
        reused=(),
        added=(),
        removed=(),
        changed=(),
        spec_changed=(),
        propagated=(),
        reasons={name: reason for name in names},
        propagated_via={},
    )


def plan_incremental(
    module: ParsedModule,
    state: ProjectState | None,
    *,
    cold_reason: str | None = None,
) -> IncrementalPlan:
    """Diff ``module`` against ``state`` and compute the dirty set.

    With no usable state every class is dirty (a cold run).  Otherwise
    the dirty set is seeded with added classes, classes whose full
    fingerprint changed, and classes whose stored verdict is unusable
    (quarantined last run, or a corrupt entry); it is then propagated
    one layer along reverse dependency edges from every *spec event* —
    a class added, removed, or with a changed spec digest.  The
    worklist never re-enqueues (a propagated class's own spec digest is
    unchanged), so it terminates on cyclic dependency graphs too.
    """
    if state is None:
        return _cold_plan(module, cold_reason or "no usable project state")

    current = {parsed.name: parsed for parsed in module.classes}
    fingerprints = {
        name: class_fingerprint(parsed) for name, parsed in current.items()
    }
    specs = {name: spec_fingerprint(parsed) for name, parsed in current.items()}
    old = state.classes

    added = sorted(name for name in current if name not in old)
    removed = sorted(name for name in old if name not in current)
    changed = sorted(
        name
        for name in current
        if name in old and fingerprints[name] != old[name].fingerprint
    )
    spec_changed = sorted(
        name
        for name in current
        if name in old and specs[name] != old[name].spec
    )

    dirty: set[str] = set()
    reasons: dict[str, str] = {}
    for name in added:
        dirty.add(name)
        reasons[name] = "class added"
    for name in changed:
        dirty.add(name)
        reasons.setdefault(name, "class fingerprint changed")
    for name in current:
        if name in dirty or name not in old:
            continue
        if not _usable_verdict(old[name]):
            dirty.add(name)
            reasons[name] = "no usable stored verdict"

    # Reverse-edge propagation from every spec event.  The worklist is
    # seeded once and nothing is ever re-enqueued: a dependent dirtied
    # here has an unchanged spec digest (its own source is unchanged),
    # so its dependents' verdict keys are unaffected.  Termination is
    # therefore immediate — cycles included — and the visited set is
    # belt and braces.
    spec_events = sorted(set(added) | set(removed) | set(spec_changed))
    reverse = _reverse_edges(module)
    propagated: set[str] = set()
    propagated_via: dict[str, list[str]] = {}
    queue = deque(spec_events)
    drained: set[str] = set()
    while queue:
        source = queue.popleft()
        if source in drained:
            continue
        drained.add(source)
        for dependent in reverse.get(source, ()):
            propagated_via.setdefault(dependent, []).append(source)
            if dependent in dirty:
                continue
            dirty.add(dependent)
            propagated.add(dependent)
            reasons[dependent] = f"subsystem spec changed: {source}"
            # A dependent dirtied here kept its own spec digest, so its
            # dependents' verdict keys are unaffected: nothing is ever
            # re-enqueued and the drain terminates on cyclic graphs.

    reused = sorted(name for name in current if name not in dirty)
    return IncrementalPlan(
        cold=False,
        cold_reason=None,
        dirty=tuple(sorted(dirty)),
        reused=tuple(reused),
        added=tuple(added),
        removed=tuple(removed),
        changed=tuple(changed),
        spec_changed=tuple(spec_changed),
        propagated=tuple(sorted(propagated)),
        reasons=reasons,
        propagated_via={
            name: tuple(sorted(set(sources)))
            for name, sources in sorted(propagated_via.items())
            if name in propagated
        },
    )


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------

def snapshot_state(
    module: ParsedModule,
    outcomes: Mapping[str, CheckResult],
    timings: Mapping[str, ClassTiming] | None = None,
    previous: ProjectState | None = None,
) -> ProjectState:
    """The state to persist after a run whose final verdicts are
    ``outcomes`` (one entry per class, spliced or checked).

    Quarantined classes (any ``engine-*`` diagnostic) are stored with
    ``diagnostics=None`` — digests known, verdict unknown — so the next
    run re-checks them without dirtying their dependents.  For spliced
    classes the previous entry's wall time is carried over.
    """
    timings = timings or {}
    classes: dict[str, ClassState] = {}
    for parsed in module.classes:
        name = parsed.name
        result = outcomes.get(name)
        quarantined = result is not None and any(
            diagnostic.code.startswith("engine-")
            for diagnostic in result.diagnostics
        )
        timing = timings.get(name)
        wave = timing.wave if timing is not None else 0
        if timing is not None and timing.from_state and previous is not None:
            entry = previous.classes.get(name)
            seconds = entry.seconds if entry is not None else 0.0
        elif timing is not None:
            seconds = timing.seconds
        else:
            seconds = 0.0
        classes[name] = ClassState(
            name=name,
            fingerprint=class_fingerprint(parsed),
            spec=spec_fingerprint(parsed),
            deps=named_subsystems(parsed),
            diagnostics=(
                None
                if result is None or quarantined
                else tuple(diagnostics_to_list(result.diagnostics))
            ),
            wave=wave,
            seconds=seconds,
        )
    return ProjectState(classes=classes, source_name=module.source_name)


# ----------------------------------------------------------------------
# The incremental runner
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IncrementalResult:
    """Everything one incremental run produced."""

    #: The final, spliced batch result — ``merged()`` is byte-identical
    #: to a cold run of the same module.
    batch: BatchResult
    plan: IncrementalPlan
    #: The fresh state snapshot (persisted unless ``write_state=False``).
    state: ProjectState
    state_file: Path
    #: What persisting the snapshot actually did — lock waits, merged
    #: concurrent verdicts, or a reported (never silent) failure; ``None``
    #: when ``write_state=False``.
    save: SaveReport | None = None


def verify_incremental(
    module: ParsedModule,
    violations: list[SubsetViolation] | None = None,
    *,
    state_file: str | Path,
    write_state: bool = True,
    **engine: Any,
) -> IncrementalResult:
    """Re-verify a project incrementally against ``state_file``.

    Loads the recorded state (an unusable one degrades to a cold run),
    plans the dirty set, runs only the dirty classes through the batch
    engine, splices every clean class's stored verdict back into the
    report, and persists a fresh snapshot.  The merged report is
    byte-identical to a cold run of the same parse — the property the
    entry-path harness pins (``tests/engine/test_entry_paths.py``).
    Takes every :class:`BatchVerifier` keyword except ``only``, which
    the dirty set decides.
    """
    state_file = Path(state_file)
    previous, load_reason = load_state(state_file)
    plan = plan_incremental(module, previous, cold_reason=load_reason)
    verifier = BatchVerifier(
        module,
        violations,
        only=None if plan.cold else frozenset(plan.dirty),
        **engine,
    )
    tracer = verifier.tracer

    with tracer.span(
        "phase",
        "inc-plan",
        dirty=len(plan.dirty),
        reused=len(plan.reused),
        cold=plan.cold,
    ):
        for name in plan.dirty:
            tracer.event(
                "inc-dirty", cls=name, reason=plan.reasons.get(name, "cold")
            )
        for name in plan.propagated:
            for source in plan.propagated_via.get(name, ()):
                tracer.event("inc-propagate", cls=name, via=source)
        for name in plan.reused:
            tracer.event("inc-skip", cls=name)

    batch = verifier.run()

    # Splice: checked verdicts from the engine, clean verdicts from the
    # state, in module source order — exactly the cold-run report order.
    full_waves = schedule(module)
    wave_of = {
        name: index
        for index, wave in enumerate(full_waves)
        for name in wave
    }
    checked = dict(batch.class_results)
    spliced: list[tuple[str, CheckResult]] = []
    reused_timings: list[ClassTiming] = []
    for parsed in module.classes:
        name = parsed.name
        if name in checked:
            spliced.append((name, checked[name]))
            continue
        entry = previous.classes[name]  # plan guarantees presence
        spliced.append(
            (
                name,
                CheckResult(
                    diagnostics=diagnostics_from_list(list(entry.diagnostics))
                ),
            )
        )
        reused_timings.append(
            ClassTiming(
                class_name=name,
                seconds=0.0,
                from_cache=False,
                wave=wave_of.get(name, 0),
                from_state=True,
            )
        )

    timings = tuple(
        sorted(
            batch.metrics.timings + tuple(reused_timings),
            key=lambda timing: (timing.wave, timing.class_name),
        )
    )

    snapshot = snapshot_state(
        module,
        dict(spliced),
        timings={timing.class_name: timing for timing in timings},
        previous=previous,
    )
    save: SaveReport | None = None
    if write_state:
        save = save_state(state_file, snapshot, loaded=previous, tracer=tracer)

    metrics = replace(
        batch.metrics,
        classes=len(module.classes),
        waves=len(full_waves),
        timings=timings,
        incremental=True,
        reused_verdicts=len(reused_timings),
        dirty_classes=len(plan.dirty),
        state_save_failures=(
            1 if save is not None and not save.ok else 0
        ),
        state_merged_entries=save.merged_classes if save is not None else 0,
        state_generation=save.generation if save is not None else 0,
    )
    final = BatchResult(
        module=module,
        module_result=batch.module_result,
        class_results=tuple(spliced),
        metrics=metrics,
    )
    return IncrementalResult(
        batch=final, plan=plan, state=snapshot, state_file=state_file,
        save=save,
    )
