"""The differential harness: incremental == cold, always.

The incremental engine's whole contract is one equation — after any
edit, ``verify_incremental`` must produce a report *byte-identical* to a
fresh cold run of the same parse, while re-checking *exactly* the dirty
set the documented rule predicts (docs/incremental.md).  This suite
pins both halves over randomly generated projects and random edit
sequences:

* **project model** — a dict of named classes, each either a base
  (linear ``step0 → … → []`` protocol, optional back-edge, blank-line
  padding) or a composite (one subsystem field, a chain of ``run``
  operations, padding).  Every class renders to its *own* source string
  and is parsed separately, so a padding edit shifts only that class's
  line numbers — the realistic "edited one file" shape;
* **edits** — body-only change, return-list (spec) change, class
  add/remove, rename, dependency rewire;
* **on disk** — the same project written one file per class and read
  back through ``parse_project`` (the walk, the parse memo and the
  state file's re-read under the lock), with file-level edits too:
  add, delete and rename a file, and move a class into another file,
  which shifts the line numbers of the classes that follow it;
* **prediction** — the dirty set is recomputed *independently* from the
  model diff (not from the planner's own fingerprints): added classes,
  classes whose rendered source changed, and classes naming a subsystem
  that was added, removed, or spec-changed;
* **fault profiles** — the same equation must hold under injected
  worker delays and cache-entry corruption (the ``delay`` and
  ``corrupt`` actions; ``raise``/``kill`` would make cold and
  incremental runs consume a shared ``times=`` budget differently, so
  they are exercised by the supervisor suite instead).

The nightly CI job re-runs this file with a larger budget; explicit
``max_examples`` would override any profile, so budgets here are scaled
by ``REPRO_FUZZ_MULTIPLIER`` (the nightly workflow sets it to 20).
"""

import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import faults
from repro.engine.cache import InferenceCache
from repro.engine.engine import BatchVerifier
from repro.engine.incremental import verify_incremental
from repro.frontend.model_ast import ParsedModule
from repro.frontend.parse import parse_module
from repro.frontend.project import parse_project

_MULTIPLIER = max(1, int(os.environ.get("REPRO_FUZZ_MULTIPLIER", "1")))


def _examples(base: int) -> int:
    return base * _MULTIPLIER

# ----------------------------------------------------------------------
# The project model and its renderer
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BaseModel:
    """A leaf protocol class: ``step0 → step1 → … → []``."""

    steps: int = 2  # >= 2: initial plus final
    back_edge: bool = False  # step0 may also return to itself (spec change)
    pad: int = 0  # leading blank lines (lineno-only change)


@dataclass(frozen=True)
class CompModel:
    """A composite driving one subsystem field through ``dep_steps`` calls."""

    dep: str  # named subsystem class; may dangle
    dep_steps: int = 2  # calls step0..step{n-1} (body-only change)
    ops: int = 1  # chained run operations (spec change)
    pad: int = 0


def render(name, model):
    lines = [""] * model.pad
    if isinstance(model, BaseModel):
        lines += ["@sys", f"class {name}:"]
        for index in range(model.steps):
            if index == 0:
                decorator = "@op_initial"
            elif index == model.steps - 1:
                decorator = "@op_final"
            else:
                decorator = "@op"
            successors = []
            if index < model.steps - 1:
                successors.append(f"step{index + 1}")
                if index == 0 and model.back_edge:
                    successors.append("step0")
            listed = ", ".join(repr(s) for s in successors)
            lines += [
                f"    {decorator}",
                f"    def step{index}(self):",
                f"        return [{listed}]",
            ]
    else:
        lines += [
            "@sys(['s0'])",
            f"class {name}:",
            "    def __init__(self):",
            f"        self.s0 = {model.dep}()",
        ]
        for op_index in range(model.ops):
            if model.ops == 1:
                decorator = "@op_initial_final"
            elif op_index == 0:
                decorator = "@op_initial"
            elif op_index == model.ops - 1:
                decorator = "@op_final"
            else:
                decorator = "@op"
            lines += [f"    {decorator}", f"    def run{op_index}(self):"]
            if op_index == 0:
                lines += [
                    f"        self.s0.step{step}()"
                    for step in range(model.dep_steps)
                ]
            else:
                lines.append("        pass")
            if op_index < model.ops - 1:
                lines.append(f"        return ['run{op_index + 1}']")
            else:
                lines.append("        return []")
    return "\n".join(lines) + "\n"


def build_module(project):
    """Render and parse each class *separately*, then merge.

    Per-class parsing keeps a padding edit's lineno shift local to the
    edited class, like a one-file edit in a multi-file project.
    """
    classes, violations = [], []
    for name in sorted(project):
        module, file_violations = parse_module(
            render(name, project[name]), source_name=name
        )
        assert len(module.classes) == 1
        classes.append(module.classes[0])
        violations.extend(file_violations)
    return ParsedModule(classes=tuple(classes), source_name="<diff>"), violations


# ----------------------------------------------------------------------
# Independent dirtiness prediction (from the model diff, not the planner)
# ----------------------------------------------------------------------


def spec_shape(model):
    """The model fields that determine the class's *spec structure*."""
    if isinstance(model, BaseModel):
        return ("base", model.steps, model.back_edge)
    return ("comp", model.ops)


def named_deps(model):
    return (model.dep,) if isinstance(model, CompModel) else ()


def predict_dirty(old, new):
    added = {name for name in new if name not in old}
    removed = {name for name in old if name not in new}
    source_changed = {
        name for name in new if name in old and old[name] != new[name]
    }
    spec_events = added | removed | {
        name
        for name in new
        if name in old and spec_shape(old[name]) != spec_shape(new[name])
    }
    dirty = added | source_changed
    for name, model in new.items():
        if any(dep in spec_events for dep in named_deps(model)):
            dirty.add(name)
    return dirty


# ----------------------------------------------------------------------
# Random edit sequences
# ----------------------------------------------------------------------

EDIT_KINDS = ("body", "returns", "add", "remove", "rename", "rewire")


def apply_edit(draw, project, fresh):
    """Mutate ``project`` in place with one randomly drawn edit."""
    kind = draw(st.sampled_from(EDIT_KINDS))
    names = sorted(project)
    if kind == "body":
        name = draw(st.sampled_from(names))
        model = project[name]
        if isinstance(model, BaseModel):
            project[name] = replace(model, pad=model.pad + 1)
        elif draw(st.booleans()):
            project[name] = replace(model, dep_steps=model.dep_steps + 1)
        else:
            project[name] = replace(model, pad=model.pad + 1)
    elif kind == "returns":
        name = draw(st.sampled_from(names))
        model = project[name]
        if isinstance(model, BaseModel):
            project[name] = replace(model, back_edge=not model.back_edge)
        else:
            project[name] = replace(model, ops=1 if model.ops > 1 else 2)
    elif kind == "add":
        name = f"C{next(fresh)}"
        if draw(st.booleans()):
            project[name] = BaseModel(steps=draw(st.integers(2, 4)))
        else:
            dep = draw(st.sampled_from(names + ["Ghost"]))
            project[name] = CompModel(dep=dep, dep_steps=draw(st.integers(1, 3)))
    elif kind == "remove" and len(names) > 1:
        del project[draw(st.sampled_from(names))]
    elif kind == "rename":
        old_name = draw(st.sampled_from(names))
        project[f"C{next(fresh)}"] = project.pop(old_name)
    elif kind == "rewire":
        comps = [n for n in names if isinstance(project[n], CompModel)]
        if comps:
            name = draw(st.sampled_from(comps))
            dep = draw(st.sampled_from(names + ["Ghost"]))
            project[name] = replace(project[name], dep=dep)


def initial_project(draw):
    project = {"Dev0": BaseModel(steps=draw(st.integers(2, 4)))}
    for index in range(draw(st.integers(0, 2))):
        project[f"Dev{index + 1}"] = BaseModel(steps=draw(st.integers(2, 4)))
    bases = sorted(project)
    for index in range(draw(st.integers(1, 3))):
        dep = draw(st.sampled_from(bases + ["Ghost"]))
        project[f"Ctl{index}"] = CompModel(
            dep=dep, dep_steps=draw(st.integers(1, 4))
        )
    return project


# ----------------------------------------------------------------------
# On disk: files of classes, file-level edits
# ----------------------------------------------------------------------

FILE_EDIT_KINDS = ("class", "add-file", "delete-file", "rename-file", "move")
FOLDERS = ("", "lib/", "lib/drivers/")


def write_project(root, project, layout):
    """Write ``layout`` (file → class names, in file order) under a
    fresh ``root``; returns each class's first line within its file."""
    shutil.rmtree(root, ignore_errors=True)
    first_lines = {}
    for file_name, names in layout.items():
        texts = [render(name, project[name]) for name in names]
        line = 0
        for name, text in zip(names, texts):
            first_lines[name] = line
            line += text.count("\n")
        path = root / file_name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(texts), encoding="utf-8")
    return first_lines


def apply_file_edit(draw, project, layout, fresh):
    """Mutate ``project`` and ``layout`` in place with one drawn edit."""
    kind = draw(st.sampled_from(FILE_EDIT_KINDS))
    files = sorted(layout)

    def new_file():
        return f"{draw(st.sampled_from(FOLDERS))}m{next(fresh)}.py"

    if kind == "class":
        before = set(project)
        apply_edit(draw, project, fresh)
        new = sorted(set(project) - before)
        for names in layout.values():
            for index, name in enumerate(names):
                if name not in project and new:  # a rename keeps its place
                    names[index] = new.pop()
            names[:] = [name for name in names if name in project]
        for name in new:
            layout[draw(st.sampled_from(files))].append(name)
    elif kind == "add-file":
        name = f"C{next(fresh)}"
        project[name] = BaseModel(steps=draw(st.integers(2, 4)))
        layout[new_file()] = [name]
    elif kind == "delete-file":
        victim = draw(st.sampled_from(files))
        if any(layout[other] for other in files if other != victim):
            for name in layout.pop(victim):
                del project[name]
    elif kind == "rename-file":
        layout[new_file()] = layout.pop(draw(st.sampled_from(files)))
    else:  # move a class to the end of a file, maybe its own
        source = draw(st.sampled_from([f for f in files if layout[f]]))
        name = draw(st.sampled_from(layout[source]))
        layout[source].remove(name)
        layout[draw(st.sampled_from(files))].append(name)


# ----------------------------------------------------------------------
# The differential property
# ----------------------------------------------------------------------


def run_differential(data, fault_spec=None, on_disk=False):
    # Installed per example (not via a function-scoped fixture, which
    # Hypothesis rejects): an empty plan shields the run from ambient
    # REPRO_FAULTS; the engine conftest clears the install afterwards.
    if fault_spec is not None:
        faults.install(faults.parse_faults(fault_spec))
    else:
        faults.install(faults.FaultPlan(()))
    project = initial_project(data.draw)
    layout = {f"{name.lower()}.py": [name] for name in sorted(project)}
    fresh = iter(range(10_000))
    with tempfile.TemporaryDirectory() as scratch:
        state_file = Path(scratch) / "state.json"
        root = Path(scratch) / "project"
        cache = InferenceCache(Path(scratch) / "cache")
        previous, previous_lines = {}, {}
        edits = data.draw(st.integers(1, 5))
        for _round in range(edits + 1):  # round 0 is the cold first run
            if on_disk:
                first_lines = write_project(root, project, layout)
                module, violations = parse_project(root)
            else:
                first_lines = {}
                module, violations = build_module(project)
            incremental = verify_incremental(
                module,
                list(violations),
                state_file=state_file,
                cache=cache,
            )
            cold = BatchVerifier(module, list(violations)).run()

            assert (
                incremental.batch.merged().format() == cold.merged().format()
            ), "incremental report diverged from the cold run"
            # A class that moved within its file, or to another line of
            # another file, changed its line numbers: dirty, no cascade.
            predicted = predict_dirty(previous, project) | {
                name
                for name in project
                if name in previous
                and first_lines.get(name) != previous_lines.get(name)
            }
            assert set(incremental.plan.dirty) == predicted
            executed = {
                timing.class_name
                for timing in incremental.batch.metrics.timings
                if not timing.from_state
            }
            assert executed == predicted
            assert incremental.batch.metrics.reused_verdicts == len(
                project
            ) - len(predicted)

            previous, previous_lines = dict(project), first_lines
            if on_disk:
                apply_file_edit(data.draw, project, layout, fresh)
            else:
                apply_edit(data.draw, project, fresh)


@given(st.data())
@settings(max_examples=_examples(25), deadline=None)
def test_incremental_equals_cold(data):
    run_differential(data)


@given(st.data())
@settings(max_examples=_examples(25), deadline=None)
def test_incremental_equals_cold_on_disk(data):
    run_differential(data, on_disk=True)


@pytest.mark.parametrize(
    "fault_spec",
    [
        "worker:delay:*:arg=0.001",
        "cache-put:corrupt:*:p=0.5",
    ],
    ids=["delay", "corrupt"],
)
@given(st.data())
@settings(max_examples=_examples(8), deadline=None)
def test_incremental_equals_cold_under_faults(fault_spec, data):
    run_differential(data, fault_spec=fault_spec)
