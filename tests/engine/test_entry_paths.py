"""The entry-path harness: every way into the checker prints the serial
checker's report.

Verdicts are per class and exact, so each entry path — the engine
serial, on a thread pool or a process pool, incremental, sharded,
answered from a warm local or remote cache, and served as a daemon job
— must print ``Checker(module, violations).check().format()`` byte for
byte.  :data:`ENTRY_PATHS` is one table of named rows, and every input
runs every row:

* **random projects and edit sequences** — every round of a sequence,
  the cold first one included, runs the whole table, in memory and on
  disk (below);
* **fixed inputs** — the two shipped examples and a claim-bearing
  generated module.

Each input runs under one fault profile (:data:`FAULT_PROFILES`): none,
worker delays, cache-entry corruption, a failing remote upload, or
delayed cache writes; none of them may change a byte of any report.
``raise`` and ``kill`` at the worker site either quarantine a class,
which changes the report on purpose, or are absorbed by a retry; the
supervisor suite covers both.  A divergence names its row and its
profile, and Hypothesis prints the example that replays it.

The incremental row keeps the incremental engine's second contract:
it re-checks *exactly* the dirty set predicted independently from the
edit (docs/incremental.md), not from the planner's own fingerprints.

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
* **prediction** — added classes, classes whose rendered source or
  first line changed, and classes naming a subsystem that was added,
  removed, or spec-changed.

The nightly CI job re-runs this file with a larger budget; explicit
``max_examples`` would override any profile, so budgets here are scaled
by ``REPRO_FUZZ_MULTIPLIER`` (the nightly workflow sets it to 20).
"""

import asyncio
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checker import Checker
from repro.engine import (
    BatchVerifier,
    InferenceCache,
    faults,
    merge_shard_results,
    open_cache,
    plan_shards,
    run_shard,
    shard_result_from_dict,
    shard_result_to_dict,
    verify_incremental,
)
from repro.engine.backends.server import run_cache_server
from repro.frontend.model_ast import ParsedModule, SubsetViolation
from repro.frontend.parse import parse_module
from repro.frontend.project import parse_project, project_files
from repro.serve.config import ServeConfig
from repro.serve.jobs import DONE
from repro.serve.service import VerificationService
from repro.workloads.hierarchy import HierarchyShape, lifecycle_claim, module_source

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
# The entry paths
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Round:
    """One input, as every entry path sees it."""

    module: ParsedModule
    violations: list[SubsetViolation]
    #: The project's sources in its file order (what the daemon is sent).
    sources: tuple[str, ...]
    #: Kept across an input's rounds: state file, cache trees, daemon.
    workdir: Path
    #: Endpoint of the remote cache tier.
    remote: str
    shards: int
    #: The classes the incremental run must re-check.
    dirty: frozenset[str]


def report(r: Round, **engine) -> str:
    return BatchVerifier(r.module, r.violations, **engine).run().merged().format()


def serial(r: Round) -> str:
    return report(r)


def threads(r: Round) -> str:
    batch = BatchVerifier(r.module, r.violations, jobs=2).run()
    assert [name for name, _ in batch.class_results] == [
        parsed.name for parsed in r.module.classes
    ], "class results out of source order"
    return batch.merged().format()


def processes(r: Round) -> str:
    # A class deadline sends even a one-class wave to the pool.
    batch = BatchVerifier(
        r.module, r.violations, jobs=2, executor="process", timeout=60.0
    ).run()
    assert batch.metrics.executor == "process"
    return batch.merged().format()


def incremental(r: Round) -> str:
    result = verify_incremental(
        r.module,
        r.violations,
        state_file=r.workdir / "state.json",
        cache=InferenceCache(r.workdir / "incremental-cache"),
    )
    assert set(result.plan.dirty) == r.dirty, "planned dirty set"
    executed = {
        timing.class_name
        for timing in result.batch.metrics.timings
        if not timing.from_state
    }
    assert executed == r.dirty, "re-checked classes"
    assert result.batch.metrics.reused_verdicts == len(r.module.classes) - len(
        r.dirty
    )
    return result.batch.merged().format()


def sharded(r: Round) -> str:
    """``plan_shards`` → ``run_shard`` → JSON → ``merge_shard_results``,
    the way ``repro coordinate`` moves shard results between processes."""
    results = []
    for plan in plan_shards(r.module, r.shards):
        batch = run_shard(r.module, r.violations, plan)
        wire = json.loads(json.dumps(shard_result_to_dict(plan, batch)))
        results.append(shard_result_from_dict(wire))
    return merge_shard_results(r.module, r.violations, results).merged().format()


def warm_local_cache(r: Round) -> str:
    """Fill a local tree through the tiered cache, which also warms the
    remote tier, then answer from the tree alone."""
    seeding = open_cache(r.workdir / "local-cache", r.remote)
    try:
        BatchVerifier(r.module, r.violations, jobs=2, cache=seeding).run()
    finally:
        seeding.close()
    return report(r, jobs=2, cache=open_cache(r.workdir / "local-cache"))


def warm_remote_cache(r: Round) -> str:
    """A local tree of its own, empty in an input's first round, in front
    of the remote tier that :func:`warm_local_cache` filled: what a round
    changed comes over the wire."""
    cache = open_cache(r.workdir / "remote-cache", r.remote)
    try:
        return report(r, cache=cache)
    finally:
        cache.close()


def served(r: Round) -> str:
    """A job of an in-process daemon; it accepts flat ``<name>.py`` files
    only, so the files are numbered in the project's file order."""
    files = {f"m{index:03d}.py": text for index, text in enumerate(r.sources)}

    async def job():
        service = VerificationService(ServeConfig(cache_dir=str(r.workdir / "serve")))
        await service.start()
        try:
            submitted = service.submit("harness", files)
            while not service.jobs[submitted.id].terminal:
                await service.updated(1.0)
        finally:
            await service.drain()
        return service.jobs[submitted.id]

    done = asyncio.run(job())
    assert done.state == DONE, done.error
    return done.report


#: Every way into the checker, in the order each round runs them (the
#: warm remote row reads what the warm local row stored).
ENTRY_PATHS = (
    ("serial", serial),
    ("threads", threads),
    ("processes", processes),
    ("incremental", incremental),
    ("shards", sharded),
    ("warm local cache", warm_local_cache),
    ("warm remote cache", warm_remote_cache),
    ("serve job", served),
)

#: Fault profiles no report may notice; each input runs under one.
FAULT_PROFILES = {
    "none": "",
    "worker-delay": "worker:delay:*:arg=0.001",
    "cache-put-corrupt": "cache-put:corrupt:*:p=0.5",
    "remote-put-raise": "remote-put:raise:*",
    "store-write-delay": "seed=3;store-write:delay:class/*:arg=0.001:p=0.3",
}


def check_every_path(r: Round, profile: str) -> None:
    """Run every row on ``r``; a divergence names its row and profile."""
    expected = Checker(r.module, list(r.violations)).check().format()
    for name, path in ENTRY_PATHS:
        where = f"entry path {name!r} under fault profile {profile!r}"
        try:
            report = path(r)
        except Exception as error:
            raise AssertionError(f"{where} failed: {error}") from error
        assert report == expected, f"{where} diverged from the serial checker"


@pytest.fixture(scope="module")
def remote_tier(tmp_path_factory):
    server = run_cache_server(tmp_path_factory.mktemp("remote-tier"))
    yield server.endpoint
    server.shutdown()
    server.server_close()


# ----------------------------------------------------------------------
# Random projects and edit sequences
# ----------------------------------------------------------------------


def run_rounds(data, profile, remote, on_disk=False):
    # Installed per example (not via a function-scoped fixture, which
    # Hypothesis rejects); the profile's plan also shields the run from
    # ambient REPRO_FAULTS, and the engine conftest clears it afterwards.
    faults.install(faults.parse_faults(FAULT_PROFILES[profile]))
    project = initial_project(data.draw)
    layout = {f"{name.lower()}.py": [name] for name in sorted(project)}
    fresh = iter(range(10_000))
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch)
        root = workdir / "project"
        previous, previous_lines = {}, {}
        edits = data.draw(st.integers(1, 5))
        for _round in range(edits + 1):  # round 0 is the cold first run
            if on_disk:
                first_lines = write_project(root, project, layout)
                module, violations = parse_project(root)
                sources = tuple(
                    path.read_text(encoding="utf-8") for path in project_files(root)
                )
            else:
                first_lines = {}
                module, violations = build_module(project)
                sources = tuple(render(name, project[name]) for name in sorted(project))
            # A class that moved within its file, or to another line of
            # another file, changed its line numbers: dirty, no cascade.
            dirty = predict_dirty(previous, project) | {
                name
                for name in project
                if name in previous
                and first_lines.get(name) != previous_lines.get(name)
            }
            check_every_path(
                Round(
                    module,
                    violations,
                    sources,
                    workdir,
                    remote,
                    shards=data.draw(st.integers(1, 5)),
                    dirty=frozenset(dirty),
                ),
                profile,
            )
            previous, previous_lines = dict(project), first_lines
            if on_disk:
                apply_file_edit(data.draw, project, layout, fresh)
            else:
                apply_edit(data.draw, project, fresh)


@pytest.mark.parametrize("profile", FAULT_PROFILES)
@given(st.data())
@settings(max_examples=_examples(3), deadline=None)
def test_random_projects(remote_tier, profile, data):
    run_rounds(data, profile, remote_tier)


@pytest.mark.parametrize("profile", FAULT_PROFILES)
@given(st.data())
@settings(max_examples=_examples(3), deadline=None)
def test_random_projects_on_disk(remote_tier, profile, data):
    run_rounds(data, profile, remote_tier, on_disk=True)


# ----------------------------------------------------------------------
# Fixed inputs
# ----------------------------------------------------------------------

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
CLAIM_SHAPE = HierarchyShape(base_operations=4, subsystems=2, seed=13)
FIXED_INPUTS = {
    "greenhouse_monitor": (EXAMPLES / "greenhouse_monitor.py").read_text("utf-8"),
    "wireless_fleet": (EXAMPLES / "wireless_fleet.py").read_text("utf-8"),
    "lifecycle_claim": module_source(CLAIM_SHAPE, claim=lifecycle_claim(CLAIM_SHAPE)),
}


# Each profile brings its own shard count, so every input is sharded
# every way from one to five.
@pytest.mark.parametrize(
    "shards, profile",
    [
        pytest.param(shards, profile, id=profile)
        for shards, profile in enumerate(FAULT_PROFILES, start=1)
    ],
)
@pytest.mark.parametrize("name", FIXED_INPUTS)
def test_fixed_inputs(remote_tier, tmp_path, name, shards, profile):
    faults.install(faults.parse_faults(FAULT_PROFILES[profile]))
    source = FIXED_INPUTS[name]
    module, violations = parse_module(source)
    assert module.classes, f"{name} must define @sys classes"
    check_every_path(
        Round(
            module,
            violations,
            (source,),
            tmp_path,
            remote_tier,
            shards=shards,
            dirty=frozenset(parsed.name for parsed in module.classes),
        ),
        profile,
    )
