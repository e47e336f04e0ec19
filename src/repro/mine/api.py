"""End-to-end mining of a module: parse, instantiate, collect, learn, diff.

The static side comes from the frontend (``@sys`` classes parsed to
:class:`~repro.core.spec.ClassSpec`); the dynamic side from *executing*
the module — the annotations are behavior-preserving taggers, so the
same source is both analyzable and runnable.  Each class is wrapped by
the runtime monitor, driven through a transition-covering plus seeded
random corpus, mined into a DFA, and (optionally) diffed against its
static model.

Reports are deterministic byte for byte for a fixed ``(source, config)``:
no timestamps, no wall-clock numbers, sorted rendering throughout.
Timings live in the metrics payload only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.spec import ClassSpec
from repro.frontend.model_ast import FrontendError
from repro.frontend.parse import parse_module
from repro.mine.collect import (
    CollectConfig,
    CollectError,
    collect_corpus,
    transition_coverage,
)
from repro.mine.corpus import TraceCorpus
from repro.mine.diff import DiffResult, diff_mined
from repro.mine.learn import MinedModel, mine_corpus
from repro.obs.tracer import NULL_TRACER
from repro.runtime.monitor import MonitorError, monitored


class MineError(Exception):
    """The module could not be mined (parse/exec/monitor failure)."""


@dataclass
class ClassMineResult:
    """Everything mining produced for one class."""

    class_name: str
    corpus: TraceCorpus
    model: MinedModel
    coverage: float
    diff: DiffResult | None = None
    seconds: dict[str, float] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """No soundness violation and no conformance fault observed."""
        if self.corpus.notes:
            return False
        return self.diff is None or self.diff.sound

    def format(self) -> str:
        stats = self.corpus.stats()
        lines = [
            f"class {self.class_name}: corpus {stats['samples']} runs / "
            f"{stats['events']} events / {stats['positive_words']} lifecycles, "
            f"coverage {self.coverage:.2f}, "
            f"mined {self.model.stats.mined_states} states "
            f"(pta {self.model.stats.pta_states}, "
            f"merges {self.model.stats.merges_accepted})"
        ]
        # Collapse repeats (a crashing op body leaves one note per run)
        # but keep first-seen order and the total count.
        counts: dict[str, int] = {}
        for note in self.corpus.notes:
            counts[note] = counts.get(note, 0) + 1
        for note, count in counts.items():
            suffix = f" (x{count})" if count > 1 else ""
            lines.append(f"  note: {note}{suffix}")
        if self.diff is not None:
            lines.append("  " + self.diff.format().replace("\n", "\n  "))
        return "\n".join(lines)


@dataclass
class MineReport:
    """The full mining run over one module."""

    source_name: str
    results: list[ClassMineResult] = field(default_factory=list)
    config: CollectConfig = CollectConfig()

    @property
    def ok(self) -> bool:
        return all(result.clean for result in self.results)

    def divergent(self) -> list[ClassMineResult]:
        return [
            result
            for result in self.results
            if result.diff is not None and not result.diff.equivalent
        ]

    def format(self) -> str:
        verdict = "CLEAN" if self.ok else "DIVERGENT"
        header = (
            f"mine {self.source_name}: {len(self.results)} class(es), "
            f"seed {self.config.seed} -> {verdict}"
        )
        lines = [header]
        lines.extend(result.format() for result in self.results)
        return "\n".join(lines)

    def metrics(self) -> dict[str, Any]:
        """The ``mine`` metrics section (see docs/mining.md)."""
        section = {
            "classes": len(self.results),
            "corpus_samples": sum(len(r.corpus) for r in self.results),
            "corpus_events": sum(r.corpus.event_count() for r in self.results),
            "pta_states": sum(r.model.stats.pta_states for r in self.results),
            "mined_states": sum(r.model.stats.mined_states for r in self.results),
            "merges_accepted": sum(
                r.model.stats.merges_accepted for r in self.results
            ),
            "divergent": len(self.divergent()),
            "unsound": sum(
                1
                for r in self.results
                if r.diff is not None and not r.diff.sound
            ),
            "notes": sum(len(r.corpus.notes) for r in self.results),
            "wall_seconds": sum(
                sum(r.seconds.values()) for r in self.results
            ),
        }
        return {"mine": section}


#: Names the executable view of a module needs even when the source does
#: not import them (workload generators emit bare annotated classes).
def _exec_namespace() -> dict[str, Any]:
    from repro.frontend import decorators

    return {
        "sys": decorators.sys,
        "claim": decorators.claim,
        "op": decorators.op,
        "op_initial": decorators.op_initial,
        "op_final": decorators.op_final,
        "op_initial_final": decorators.op_initial_final,
    }


def load_implementations(
    source: str, source_name: str = "<mine>"
) -> dict[str, type]:
    """Execute ``source`` and return its class objects by name."""
    namespace = _exec_namespace()
    try:
        exec(compile(source, source_name, "exec"), namespace)
    except Exception as error:  # noqa: BLE001 - surfaced as a MineError
        raise MineError(
            f"cannot execute {source_name}: {type(error).__name__}: {error}"
        ) from error
    return {
        name: obj for name, obj in namespace.items() if isinstance(obj, type)
    }


def mine_source(
    source: str,
    source_name: str = "<mine>",
    class_name: str | None = None,
    config: CollectConfig = CollectConfig(),
    diff: bool = True,
    tracer=NULL_TRACER,
) -> MineReport:
    """Mine every ``@sys`` class of ``source`` (or just ``class_name``)."""
    try:
        module, violations = parse_module(source, source_name=source_name)
    except FrontendError as error:
        raise MineError(f"cannot parse {source_name}: {error}") from error
    errors = [v for v in violations if v.severity == "error"]
    if errors:
        raise MineError(
            f"cannot mine {source_name}: "
            + "; ".join(v.format() for v in errors)
        )
    parsed_classes = list(module.classes)
    if class_name is not None:
        parsed_classes = [c for c in parsed_classes if c.name == class_name]
        if not parsed_classes:
            raise MineError(
                f"{source_name} defines no @sys class named {class_name}"
            )
    implementations = load_implementations(source, source_name)

    report = MineReport(source_name=source_name, config=config)
    with tracer.span("mine-run", source_name, seed=config.seed):
        # Monitor every spec'd class up front so composite corpora run
        # with their subsystems enforced too.
        specs: dict[str, ClassSpec] = {}
        for parsed in module.classes:
            implementation = implementations.get(parsed.name)
            if implementation is None:
                continue
            spec = ClassSpec.of(parsed)
            specs[parsed.name] = spec
            try:
                monitored(implementation, spec=spec)
            except MonitorError as error:
                raise MineError(
                    f"cannot monitor {parsed.name}: {error}"
                ) from error

        for parsed in parsed_classes:
            implementation = implementations.get(parsed.name)
            if implementation is None:
                raise MineError(
                    f"{source_name} executed but defines no class "
                    f"object named {parsed.name}"
                )
            spec = specs[parsed.name]
            result = _mine_class(implementation, spec, config, diff, tracer)
            report.results.append(result)
    return report


def _mine_class(
    implementation: type,
    spec: ClassSpec,
    config: CollectConfig,
    diff: bool,
    tracer,
) -> ClassMineResult:
    seconds: dict[str, float] = {}
    with tracer.span("mine-class", spec.name):
        started = time.perf_counter()
        with tracer.span("phase", "mine-collect"):
            try:
                corpus = collect_corpus(
                    implementation, spec, config=config, tracer=tracer
                )
            except CollectError as error:
                raise MineError(str(error)) from error
        seconds["collect"] = time.perf_counter() - started

        started = time.perf_counter()
        with tracer.span("phase", "mine-learn"):
            model = mine_corpus(corpus, tracer=tracer)
        seconds["learn"] = time.perf_counter() - started

        diff_result: DiffResult | None = None
        if diff:
            started = time.perf_counter()
            with tracer.span("phase", "mine-diff"):
                diff_result = diff_mined(model, spec, tracer=tracer)
            seconds["diff"] = time.perf_counter() - started
        coverage = transition_coverage(spec, corpus)
        tracer.event(
            "mine-class-done",
            class_name=spec.name,
            coverage=round(coverage, 4),
        )
    return ClassMineResult(
        class_name=spec.name,
        corpus=corpus,
        model=model,
        coverage=coverage,
        diff=diff_result,
        seconds=seconds,
    )


def mine_path(
    path: str | Path,
    class_name: str | None = None,
    config: CollectConfig = CollectConfig(),
    diff: bool = True,
    tracer=NULL_TRACER,
) -> MineReport:
    """Mine a module file (see :func:`mine_source`)."""
    path = Path(path)
    if path.is_dir():
        raise MineError(
            "repro mine works on single module files; "
            "point it at one file of the project"
        )
    try:
        source = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise MineError(f"no such file: {path}")
    except (OSError, UnicodeDecodeError) as error:
        raise MineError(f"cannot read {path}: {error}")
    return mine_source(
        source,
        source_name=str(path),
        class_name=class_name,
        config=config,
        diff=diff,
        tracer=tracer,
    )
