"""Command-line interface.

Subcommands::

    repro check FILE          verify a module or project directory
                              (--jobs N --cache for the batch engine;
                              --incremental/--since-state to re-check
                              only what an edit dirtied;
                              --timeout/--max-states/--retries for the
                              fault-tolerant supervisor; --trace/
                              --trace-out/--metrics-out/--prom-out for
                              structured observability;
                              paper-style error reports either way)
    repro coordinate FILE --shards N
                              fan a check out to N shard worker
                              processes (optionally sharing a remote
                              cache) and merge the results into a
                              report byte-identical to the serial run
    repro serve               run the fault-tolerant verification daemon
                              (bounded admission, per-tenant fairness,
                              job deadlines, circuit breaker, crash-safe
                              job journal, graceful drain; docs/serve.md)
    repro profile FILE        verify with tracing on; print the
                              per-phase time breakdown
    repro cache stats|clear   inspect or drop the inference cache
                              (clear also removes the project state)
    repro cache verify [--repair]
                              audit every entry's checksum seal; with
                              --repair delete what fails the audit
    repro cache gc [--min-age SECONDS]
                              sweep orphaned temp files from crashes
    repro cache serve         run the shared HTTP cache daemon that
                              shard workers warm each other through
    repro state show|reset    inspect or drop the incremental state
    repro explain FILE        verify and narrate each usage counterexample
    repro model FILE          print each operation's inferred behavior regex
    repro deps FILE [CLASS]   print the §3.1 dependency graph
    repro viz FILE [CLASS]    emit a DOT behavior diagram (Figures 1-3)
    repro nusmv FILE CLASS    emit the NuSMV encoding of a class
    repro export FILE [CLASS] emit the extracted model as JSON
    repro report FILE         render a Markdown verification report
    repro suite FILE [CLASS]  generate a lifecycle test suite from the model
    repro mine FILE [CLASS]   execute the module under the runtime monitor,
                              mine a lifecycle automaton from the recorded
                              traces (--seed/--random-runs control the
                              corpus; --diff checks it against the static
                              model by kernel inclusion; --corpus-out
                              saves the replayable corpus; docs/mining.md)
    repro theorems            run the bounded metatheory checks (Thm 1-2, Cor 1)

Exit status: 0 when the target verifies (or the command succeeds); 1
when the report lists verification errors or a ``--fail-fast`` run
aborts, and when a command that builds a class's automaton outside the
batch engine (``export --what dfa``, ``nusmv``, ``report``,
``explain``) exceeds the state budget — it prints ``error:`` and the
budget message, where ``repro check`` reports ``ENGINE BUDGET``; 2 on
usage errors — bad flags or engine settings, a missing or unparseable
target, a malformed ``REPRO_FAULTS`` or ``--remote-cache`` URL — and
when a coordinated run's shards fail (their message is reported).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys as _sys
import typing
from dataclasses import fields, replace
from pathlib import Path

from repro.core.behavior import behavior_nfa, operation_exit_regexes
from repro.core.checker import Checker
from repro.core.dependency import extract_dependency_graph
from repro.core.limits import BudgetExceeded
from repro.core.spec import ClassSpec
from repro.engine import (
    BatchVerifier,
    EngineAborted,
    EngineError,
    FaultSpecError,
    coordinate,
    faults,
    open_cache,
    plan_shards,
    run_shard,
    shard_result_to_dict,
    state_path,
    verify_incremental,
)
from repro.engine.cache import DEFAULT_CACHE_DIR
from repro.engine.engine import EXECUTORS, cache_counters
from repro.frontend.model_ast import FrontendError, ParsedModule
from repro.frontend.project import parse_path
from repro.lang.inference import behavior as infer_behavior
from repro.mine.config import CollectConfig
from repro.obs.tracer import NULL_TRACER
from repro.regex.ast import format_regex
from repro.serve.config import ServeConfig, ServeConfigError


class UsageError(SystemExit):
    """A usage error: :func:`main` prints the message and the process
    exits 2 — a plain ``SystemExit(message)`` would exit 1, the code
    for "verification errors"."""

    def __init__(self, message: str):
        super().__init__(message)
        self.code = 2


def _load(path: str, tracer=None):
    try:
        with (tracer or NULL_TRACER).span("phase", "parse", file=path):
            return parse_path(path)
    except FileNotFoundError:
        raise UsageError(f"error: no such file: {path}")
    except FrontendError as error:
        raise UsageError(f"error: cannot parse {path}: {error}")


def _select_class(module: ParsedModule, name: str | None, path: str):
    if name is None:
        if len(module.classes) == 1:
            return module.classes[0]
        names = ", ".join(module.class_names()) or "(none)"
        raise UsageError(
            f"error: {path} defines several @sys classes ({names}); "
            "name one explicitly"
        )
    parsed = module.get_class(name)
    if parsed is None:
        raise UsageError(f"error: {path} defines no @sys class named {name}")
    return parsed


def _install_interrupt_handler() -> None:
    """Make SIGTERM interrupt like Ctrl-C so both signals reach the
    clean ``ENGINE INTERRUPTED`` path (main thread only — signal
    handlers cannot be installed elsewhere)."""
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return

    def _interrupt(_signum, _frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _interrupt)


# ----------------------------------------------------------------------
# The engine launch path: check, coordinate, profile and serve
# ----------------------------------------------------------------------

#: Each engine flag, declared here and nowhere else, so the commands that
#: share one cannot drift apart on its default, choices or help.
_ENGINE_FLAGS = {
    "--jobs": dict(type=int, default=1, help="engine worker count (default: 1, serial)"),
    "--executor": dict(
        choices=EXECUTORS, default="thread", help="engine worker pool backend (default: thread)"
    ),
    "--cache": dict(
        action="store_true", help="reuse and persist the content-addressed inference cache"
    ),
    "--cache-dir": dict(
        default=DEFAULT_CACHE_DIR, help=f"cache location (default: {DEFAULT_CACHE_DIR})"
    ),
    "--remote-cache": dict(
        default=None,
        metavar="URL",
        help="layer a shared remote cache tier (`repro cache serve`) over the local one; "
        "implies --cache, degrades to local-only if the remote misbehaves "
        "(docs/distributed.md)",
    ),
    "--faults": dict(
        default=None,
        metavar="SPEC",
        help="fault-injection spec (testing; same grammar as the REPRO_FAULTS "
        "environment variable)",
    ),
}


def _add_engine_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Declare the named engine flags on ``parser``, in the order given."""
    for flag in flags:
        names = (flag, "-j") if flag == "--jobs" else (flag,)
        parser.add_argument(*names, **_ENGINE_FLAGS[flag])


def _add_config_flags(
    parser: argparse.ArgumentParser, config_type: type, before: dict[str, str] | None = None
) -> None:
    """Declare a flag for each field of ``config_type``, in field order.

    Each field names its flag, metavar and help (:func:`repro.options.option`);
    the flag's type and default are the field's, and its help ends with
    the default.  A field without help is set by an engine flag, which
    :func:`_add_engine_flags` declares.  ``before`` maps a field name to
    one more engine flag to declare just ahead of that field's.
    """
    hints = typing.get_type_hints(config_type)
    for field in fields(config_type):
        meta = field.metadata
        if before and field.name in before:
            _add_engine_flags(parser, before[field.name])
        if meta["help"] is None:
            _add_engine_flags(parser, meta["flag"])
            continue
        hint = hints[field.name]
        kind = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
        if kind is bool:
            parser.add_argument(meta["flag"], action="store_true", help=meta["help"])
            continue
        if field.default is None:
            shown = meta["unset"]
        else:
            shown = f"{field.default:g}" if kind is float else field.default
        parser.add_argument(
            meta["flag"],
            type=None if kind is str else kind,
            default=field.default,
            metavar=meta["metavar"],
            help=f"{meta['help']} (default: {shown})",
        )


def _config_from_args(config_type: type, args: argparse.Namespace):
    """A ``config_type`` built from the flags :func:`_add_config_flags`
    declared; each flag's dest is its name, as argparse derives it."""
    return config_type(
        **{
            field.name: getattr(args, field.metadata["flag"].lstrip("-").replace("-", "_"))
            for field in fields(config_type)
        }
    )


@contextlib.contextmanager
def _engine_launch(args: argparse.Namespace):
    """The step every engine command (check, coordinate, profile,
    serve) takes around its run.

    It validates ``REPRO_FAULTS`` first, so a typo'd site or action is
    a one-line usage error at startup, not a baffling quarantine deep
    inside a worker.  It installs the ``--faults`` plan, where the
    command has that flag, for the run only.  And it reports invalid
    engine settings as usage errors, but a ``--fail-fast`` abort as a
    run outcome (exit 1).
    """
    try:
        faults.validate_environment()
    except FaultSpecError as error:
        raise UsageError(f"error: invalid {faults.FAULTS_ENV}: {error}")
    spec = getattr(args, "faults", None)
    previous_env = os.environ.get(faults.FAULTS_ENV)
    if spec:
        try:
            faults.install(faults.parse_faults(spec))
        except FaultSpecError as error:
            raise UsageError(f"error: {error}")
        # Process-pool workers read the spec from the environment.
        os.environ[faults.FAULTS_ENV] = spec
    try:
        yield
    except EngineError as error:
        raise UsageError(f"error: {error}")
    except EngineAborted as error:
        raise SystemExit(f"error: {error}")
    finally:
        if spec:
            # Leave no plan behind (matters for in-process callers).
            faults.install(None)
            if previous_env is None:
                os.environ.pop(faults.FAULTS_ENV, None)
            else:
                os.environ[faults.FAULTS_ENV] = previous_env


#: Engine flags that are :class:`BatchVerifier` keywords of the same name.
_ENGINE_KEYWORDS = (
    "jobs", "executor", "timeout", "max_states", "retries", "fail_fast",
)


def _engine_settings(args: argparse.Namespace, tracer) -> dict:
    """The :class:`BatchVerifier` keywords of an engine command: the
    engine flags it declares, the cache they ask for, and ``tracer``."""
    settings = {
        name: getattr(args, name) for name in _ENGINE_KEYWORDS if hasattr(args, name)
    }
    remote = getattr(args, "remote_cache", None)
    cache = None
    if args.cache or remote is not None:
        cache = open_cache(args.cache_dir, remote)
    return {**settings, "cache": cache, "tracer": tracer}


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The observability flags that ``check`` and ``mine`` share."""
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree after the report",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the trace as a JSONL event log",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write machine-readable run metrics as JSON",
    )
    parser.add_argument(
        "--prom-out",
        default=None,
        metavar="FILE",
        help="write the run metrics in Prometheus text format",
    )


def _obs_tracer(args: argparse.Namespace):
    """A tracer when any observability flag asks for one, else ``None``."""
    from repro.obs import Tracer

    if args.trace or args.trace_out or args.metrics_out or args.prom_out:
        return Tracer()
    return None


def _write_obs(args: argparse.Namespace, tracer, metrics: dict) -> None:
    """Write what the observability flags ask for: the span tree after
    the report, the JSONL trace, and the metrics payload over
    ``metrics`` as JSON and as Prometheus text."""
    from repro.obs import (
        metrics_payload,
        render_trace,
        write_metrics_json,
        write_prometheus,
        write_trace_jsonl,
    )

    if tracer is None:
        return
    if args.trace:
        print()
        print(render_trace(tracer))
    if args.trace_out:
        write_trace_jsonl(tracer, args.trace_out)
    payload = metrics_payload(metrics, tracer)
    if args.metrics_out:
        write_metrics_json(payload, args.metrics_out)
    if args.prom_out:
        write_prometheus(payload, args.prom_out)


def _cmd_check(args: argparse.Namespace) -> int:
    _install_interrupt_handler()

    sharded = args.shards is not None or args.shard_index is not None
    if sharded:
        if args.shards is None or args.shard_index is None:
            raise UsageError(
                "error: --shards and --shard-index must be given together"
            )
        if args.shards < 1:
            raise UsageError(f"error: --shards must be >= 1, got {args.shards}")
        if not 0 <= args.shard_index < args.shards:
            raise UsageError(
                f"error: --shard-index must be in [0, {args.shards}), "
                f"got {args.shard_index}"
            )
        if args.incremental or args.since_state is not None:
            raise UsageError(
                "error: --shards is incompatible with --incremental "
                "(the dirty set is a whole-project property; shard a "
                "full run instead)"
            )

    tracer = _obs_tracer(args)
    with _engine_launch(args):
        try:
            module, violations = _load(args.file, tracer)
            engine = _engine_settings(args, tracer)
            if sharded:
                plan = plan_shards(module, args.shards)[args.shard_index]
                batch = run_shard(module, violations, plan, **engine)
            elif args.incremental or args.since_state is not None:
                state_file = (
                    Path(args.since_state)
                    if args.since_state is not None
                    else state_path(args.cache_dir)
                )
                outcome = verify_incremental(
                    module, violations, state_file=state_file, **engine
                )
                batch = outcome.batch
                if outcome.save is not None and not outcome.save.ok:
                    reason = outcome.save.reason or (
                        "lock timeout"
                        if outcome.save.lock_timeout
                        else "unknown"
                    )
                    print(
                        "warning: project state not saved "
                        f"({reason}); the next incremental run is cold",
                        file=_sys.stderr,
                    )
            else:
                batch = BatchVerifier(module, violations, **engine).run()
            cache = engine["cache"]
            if cache is not None:
                # Drain the write-behind queue (a no-op for local-only
                # backends) so every verdict reaches the remote tier
                # before the process exits, then count those uploads in
                # everything the run reports.
                cache.flush()
                batch = replace(
                    batch, metrics=replace(batch.metrics, **cache_counters(cache))
                )
            if sharded and args.shard_out:
                Path(args.shard_out).write_text(
                    json.dumps(
                        shard_result_to_dict(plan, batch), indent=2, sort_keys=True
                    )
                    + "\n",
                    encoding="utf-8",
                )
            result = batch.merged()
            print(result.format())
            if args.stats:
                print()
                print(batch.metrics.format())
            _write_obs(args, tracer, batch.metrics.to_dict())
            return 0 if result.ok else 1
        except KeyboardInterrupt:
            # Ctrl-C / SIGTERM mid-run.  Every persistent structure this
            # command touches (inference cache, project state) writes
            # atomically through the crash-safe store, so there is
            # nothing to roll back — report cleanly instead of dumping a
            # traceback.
            print(
                "repro check: ENGINE INTERRUPTED (signal received); partial "
                "results discarded; the inference cache and project state "
                "remain consistent (crash-safe store)",
                file=_sys.stderr,
            )
            return 130


def _cmd_coordinate(args: argparse.Namespace) -> int:
    _install_interrupt_handler()

    if args.shards < 1:
        raise UsageError(f"error: --shards must be >= 1, got {args.shards}")
    with _engine_launch(args):
        try:
            run = coordinate(
                args.file,
                shards=args.shards,
                jobs=args.jobs,
                executor=args.executor,
                cache_dir=args.cache_dir if args.cache else None,
                worker_cache_root=args.worker_cache_dir,
                remote_cache=args.remote_cache,
                timeout_seconds=args.shard_timeout,
            )
        except KeyboardInterrupt:
            print(
                "repro coordinate: ENGINE INTERRUPTED (signal received); "
                "worker shards terminated; caches remain consistent "
                "(crash-safe store)",
                file=_sys.stderr,
            )
            return 130
    result = run.batch.merged()
    print(result.format())
    if args.stats:
        print()
        print(run.batch.metrics.format())
    return 0 if result.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.http import serve_forever

    with _engine_launch(args):
        try:
            return asyncio.run(serve_forever(_config_from_args(ServeConfig, args)))
        except ServeConfigError as error:
            raise UsageError(f"error: {error}")
        except KeyboardInterrupt:  # non-POSIX fallback: treat as drain
            return 130


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import Tracer, render_profile

    tracer = Tracer()
    with _engine_launch(args):
        module, violations = _load(args.file, tracer)
        batch = BatchVerifier(
            module, violations, **_engine_settings(args, tracer)
        ).run()
    if args.model_metrics:
        from repro.core.metrics import collect_metrics

        for parsed in module.classes:
            try:
                collect_metrics(parsed, tracer=tracer)
            except BudgetExceeded:
                # Profiling is best-effort; the check already reported
                # whatever is wrong with this class.
                continue
    print(render_profile(tracer, top=args.top))
    return 0 if batch.merged().ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    if args.cache_command == "serve":
        from repro.engine.backends.server import serve_cache

        try:
            return serve_cache(
                args.cache_dir, host=args.host, port=args.port
            )
        except (OSError, OverflowError) as error:  # overflow: a port past 65535
            raise UsageError(f"error: cannot serve cache: {error}")

    try:
        cache = open_cache(args.cache_dir)
    except EngineError as error:
        raise UsageError(f"error: {error}")
    if args.cache_command == "clear":
        removed = cache.clear()
        state_removed = cache.clear_state()
        summary = f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}"
        summary += (
            " and the project state" if state_removed else " (no project state)"
        )
        print(summary)
        return 0
    if args.cache_command == "verify":
        report = cache.verify(repair=args.repair)
        corrupt = report["corrupt"]
        print(f"cache at {args.cache_dir}:")
        print(
            f"  {'class':<8} {report['scanned']:6d} scanned  "
            f"{report['ok']:6d} ok  "
            f"{report['version_skew']:4d} version-skew  "
            f"{corrupt:4d} corrupt  "
            f"{report['repaired']:4d} repaired"
        )
        if corrupt and not args.repair:
            print("re-run with --repair to delete the corrupt entries")
        return 1 if corrupt and not args.repair else 0
    if args.cache_command == "gc":
        removed = cache.gc_tmp(min_age_seconds=args.min_age)
        print(
            f"swept {removed} orphaned temp file{'' if removed == 1 else 's'}"
        )
        return 0
    # stats
    stats = {"class": cache.disk_stats(), "state": cache.state_stats()}
    total_entries = sum(s["entries"] for s in stats.values())
    total_bytes = sum(s["bytes"] for s in stats.values())
    print(f"cache at {args.cache_dir}:")
    for name, numbers in stats.items():
        print(
            f"  {name:<8} {numbers['entries']:6d} entries  "
            f"{numbers['bytes']:10d} bytes"
        )
    print(f"  {'total':<8} {total_entries:6d} entries  {total_bytes:10d} bytes")
    orphans = cache.orphan_count()
    print(
        f"  orphaned temp files: {orphans}"
        + (" (run `repro cache gc` to sweep)" if orphans else "")
    )
    return 0


def _cmd_state(args: argparse.Namespace) -> int:
    from repro.engine.state import load_state, remove_state

    state_file = (
        Path(args.state_file)
        if args.state_file is not None
        else state_path(args.cache_dir)
    )
    if args.state_command == "reset":
        if remove_state(state_file):
            print(f"removed project state {state_file}")
        else:
            print(f"no project state at {state_file}")
        return 0
    # show
    state, reason = load_state(state_file)
    if state is None:
        print(f"no usable project state at {state_file}: {reason}")
        return 1
    print(f"project state at {state_file}:")
    if state.source_name:
        print(f"  source    {state.source_name}")
    # load_state verifies the checksum seal before accepting the file,
    # so a shown state is by construction intact.
    print(f"  generation {state.generation}  (checksum seal intact)")
    verified = sum(1 for entry in state.classes.values() if entry.verified)
    print(
        f"  classes   {len(state.classes)} recorded, {verified} with a "
        "stored verdict"
    )
    for name, entry in sorted(state.classes.items()):
        if entry.diagnostics is None:
            verdict = "unverified"
        elif entry.diagnostics:
            verdict = f"{len(entry.diagnostics)} diagnostic(s)"
        else:
            verdict = "clean"
        print(
            f"  class {name:<15} wave {entry.wave}  "
            f"fp {entry.fingerprint[:12]}  spec {entry.spec[:12]}  "
            f"[{verdict}]"
        )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.core.explain import explain_counterexample

    module, violations = _load(args.file)
    checker = Checker(module, violations)
    result = checker.check()
    print(result.format())
    for diagnostic in result.by_code("invalid-subsystem-usage"):
        parsed = module.get_class(diagnostic.class_name)
        if parsed is None or diagnostic.counterexample is None:
            continue
        explanation = explain_counterexample(
            parsed, checker.specs, diagnostic.counterexample
        )
        print()
        print(f"Explanation for {diagnostic.class_name}:")
        print(explanation.format())
    return 0 if result.ok else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.automata.kernel import determinize_bitset
    from repro.core.model_io import dump_dependency_graph, dump_dfa, dump_spec
    from repro.core.spec import ClassSpec

    module, _violations = _load(args.file)
    parsed = _select_class(module, args.cls, args.file)
    if args.what == "spec":
        print(dump_spec(ClassSpec.of(parsed)))
    elif args.what == "deps":
        print(dump_dependency_graph(extract_dependency_graph(parsed)))
    else:  # behavior DFA
        print(dump_dfa(determinize_bitset(behavior_nfa(parsed))))
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.testing.conformance import generate_suite

    module, _violations = _load(args.file)
    parsed = _select_class(module, args.cls, args.file)
    try:
        suite = generate_suite(ClassSpec.of(parsed), max_sequences=args.max)
    except ValueError as error:
        raise UsageError(f"error: {error}")
    for sequence in suite:
        print(", ".join(sequence) or "(empty lifecycle)")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    _install_interrupt_handler()

    from repro.mine import MineError, mine_path

    tracer = _obs_tracer(args)
    try:
        config = _config_from_args(CollectConfig, args)
    except ValueError as error:
        raise UsageError(f"error: {error}")
    try:
        report = mine_path(
            args.file,
            class_name=args.cls,
            config=config,
            diff=args.diff,
            tracer=tracer if tracer is not None else NULL_TRACER,
        )
    except MineError as error:
        raise UsageError(f"error: {error}")
    except KeyboardInterrupt:
        print(
            "repro mine: interrupted (signal received); partial corpus "
            "discarded",
            file=_sys.stderr,
        )
        return 130
    print(report.format())
    if args.corpus_out:
        corpora = {
            result.class_name: result.corpus.to_payload()
            for result in report.results
        }
        Path(args.corpus_out).write_text(
            json.dumps(corpora, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    _write_obs(args, tracer, report.metrics())
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.viz.report import render_report

    module, violations = _load(args.file)
    text = render_report(module, violations, title=args.file)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    module, _violations = _load(args.file)
    for parsed in module.classes:
        print(f"class {parsed.name}:")
        for operation in parsed.operations:
            inferred = infer_behavior(operation.body)
            print(f"  {operation.name}:")
            print(f"    ongoing : {format_regex(inferred.ongoing)}")
            for point in operation.returns:
                per_exit = operation_exit_regexes(operation)[point.exit_id]
                next_set = list(point.next_methods)
                print(
                    f"    exit {point.exit_id} -> {next_set}: "
                    f"{format_regex(per_exit)}"
                )
    return 0


def _cmd_deps(args: argparse.Namespace) -> int:
    from repro.viz.ascii_art import dependency_text
    from repro.viz.dot import dependency_diagram

    module, _violations = _load(args.file)
    parsed = _select_class(module, args.cls, args.file)
    graph = extract_dependency_graph(parsed)
    if args.dot:
        print(dependency_diagram(graph), end="")
    else:
        print(dependency_text(graph), end="")
    return 0


def _cmd_viz(args: argparse.Namespace) -> int:
    from repro.viz.ascii_art import spec_text
    from repro.viz.dot import spec_diagram

    module, _violations = _load(args.file)
    parsed = _select_class(module, args.cls, args.file)
    spec = ClassSpec.of(parsed)
    text = spec_diagram(spec) if args.dot else spec_text(spec)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def _cmd_nusmv(args: argparse.Namespace) -> int:
    from repro.automata.kernel import determinize_bitset
    from repro.ltlf.parser import parse_claim
    from repro.nusmv.emit import emit_model

    module, _violations = _load(args.file)
    parsed = _select_class(module, args.cls, args.file)
    dfa = determinize_bitset(behavior_nfa(parsed))
    claims = [parse_claim(text) for text in parsed.claims]
    print(emit_model(dfa, claims), end="")
    return 0


def _cmd_theorems(args: argparse.Namespace) -> int:
    from repro.lang.metatheory import check_all_theorems

    reports = check_all_theorems(
        max_program_size=args.size, max_trace_length=args.length
    )
    failed = False
    for report in reports:
        print(report.summary())
        for counterexample in report.counterexamples:
            print(f"  counterexample: {counterexample}")
        failed = failed or not report.holds
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Model inference and call-ordering verification for annotated "
            "MicroPython (reproduction of DSN-W 2023)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser("check", help="verify a module or project")
    check.add_argument("file")
    _add_engine_flags(check, "--jobs", "--executor", "--cache", "--cache-dir")
    check.add_argument(
        "--incremental",
        action="store_true",
        help="re-check only classes dirtied since the last run, splicing "
        "the rest from the project state (<cache-dir>/state.json); the "
        "report stays byte-identical to a cold run",
    )
    check.add_argument(
        "--since-state",
        default=None,
        metavar="FILE",
        help="use an explicit state file for --incremental (implies "
        "--incremental; read and updated in place)",
    )
    check.add_argument(
        "--stats",
        action="store_true",
        help="print engine metrics (cache hits, per-class wall time)",
    )
    check.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-class wall-clock deadline; a class past it is "
        "quarantined with an ENGINE TIMEOUT diagnostic",
    )
    check.add_argument(
        "--max-states",
        type=int,
        default=None,
        metavar="N",
        help="state budget per class check (<= 0 disables the cap; "
        "default: the built-in 100000-state cap)",
    )
    check.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per class for transient worker failures "
        "(exponential backoff; default: 2)",
    )
    fail_mode = check.add_mutually_exclusive_group()
    fail_mode.add_argument(
        "--fail-fast",
        action="store_true",
        default=False,
        help="abort the run on the first quarantined class",
    )
    fail_mode.add_argument(
        "--keep-going",
        dest="fail_fast",
        action="store_false",
        help="report quarantined classes and keep checking (default)",
    )
    _add_engine_flags(check, "--faults")
    _add_obs_flags(check)
    check.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="run as one shard of an N-way split (with --shard-index; "
        "the shard plan is deterministic, so every worker computes "
        "the same slices; docs/distributed.md)",
    )
    check.add_argument(
        "--shard-index",
        type=int,
        default=None,
        metavar="I",
        help="which shard this worker is (0-based, < --shards)",
    )
    check.add_argument(
        "--shard-out",
        default=None,
        metavar="FILE",
        help="write this shard's mergeable result as JSON "
        "(consumed by `repro coordinate`)",
    )
    _add_engine_flags(check, "--remote-cache")
    check.set_defaults(func=_cmd_check)

    coordinate = subparsers.add_parser(
        "coordinate",
        help="fan a check out to shard worker processes and merge the "
        "results byte-identically (docs/distributed.md)",
    )
    coordinate.add_argument("file")
    coordinate.add_argument(
        "--shards",
        type=int,
        required=True,
        metavar="N",
        help="number of worker processes (each runs one shard)",
    )
    _add_engine_flags(coordinate, "--jobs", "--executor", "--cache", "--cache-dir")
    coordinate.add_argument(
        "--worker-cache-dir",
        default=None,
        metavar="DIR",
        help="give each shard its own local cache tree under DIR "
        "(worker-0, worker-1, ...); with --remote-cache this is how "
        "workers warm each other through the shared tier",
    )
    _add_engine_flags(coordinate, "--remote-cache")
    coordinate.add_argument(
        "--shard-timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="deadline per shard process (default: 600)",
    )
    coordinate.add_argument(
        "--stats",
        action="store_true",
        help="print the merged engine metrics after the report",
    )
    coordinate.set_defaults(func=_cmd_coordinate)

    serve = subparsers.add_parser(
        "serve",
        help="run the fault-tolerant verification daemon (docs/serve.md)",
    )
    _add_config_flags(serve, ServeConfig, before={"trace": "--faults"})
    serve.set_defaults(func=_cmd_serve)

    profile = subparsers.add_parser(
        "profile",
        help="verify with tracing on; print the per-phase time breakdown",
    )
    profile.add_argument("file")
    _add_engine_flags(profile, "--jobs", "--executor", "--cache", "--cache-dir")
    profile.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="N",
        help="how many of the slowest classes to list (default: 5)",
    )
    profile.add_argument(
        "--model-metrics",
        action="store_true",
        help="also minimize each class's automata, filling the one "
        "pipeline phase (minimize) a plain check never runs",
    )
    profile.set_defaults(func=_cmd_profile)

    cache = subparsers.add_parser(
        "cache", help="inspect or clear the inference cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry counts and sizes"
    )
    cache_clear = cache_sub.add_parser("clear", help="drop every cache entry")
    cache_verify = cache_sub.add_parser(
        "verify", help="audit every entry's checksum seal"
    )
    cache_verify.add_argument(
        "--repair",
        action="store_true",
        help="delete corrupt entries (they become misses on the next run)",
    )
    cache_gc = cache_sub.add_parser(
        "gc", help="sweep orphaned temp files left by crashed writers"
    )
    cache_gc.add_argument(
        "--min-age",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="only sweep temp files older than this (default: 0, sweep all)",
    )
    cache_serve = cache_sub.add_parser(
        "serve",
        help="run the shared HTTP cache daemon workers warm each other "
        "through (docs/distributed.md)",
    )
    cache_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="listen address (default: 127.0.0.1)",
    )
    cache_serve.add_argument(
        "--port",
        type=int,
        default=8123,
        help="listen port; 0 picks a free one — the chosen endpoint is "
        "the first stdout line and <cache-dir>/cache-endpoint.json "
        "(default: 8123)",
    )
    for sub in (cache_stats, cache_clear, cache_verify, cache_gc, cache_serve):
        _add_engine_flags(sub, "--cache-dir")
    cache.set_defaults(func=_cmd_cache)

    state = subparsers.add_parser(
        "state", help="inspect or reset the incremental project state"
    )
    state_sub = state.add_subparsers(dest="state_command", required=True)
    state_show = state_sub.add_parser(
        "show", help="versions, classes and verdict status of the state file"
    )
    state_reset = state_sub.add_parser(
        "reset", help="delete the state file (the next run is cold)"
    )
    for sub in (state_show, state_reset):
        _add_engine_flags(sub, "--cache-dir")
        sub.add_argument(
            "--state-file",
            default=None,
            metavar="FILE",
            help="explicit state file (overrides --cache-dir)",
        )
    state.set_defaults(func=_cmd_state)

    explain = subparsers.add_parser(
        "explain", help="verify and narrate usage counterexamples"
    )
    explain.add_argument("file")
    explain.set_defaults(func=_cmd_explain)

    export = subparsers.add_parser("export", help="emit extracted models as JSON")
    export.add_argument("file")
    export.add_argument("cls", nargs="?", default=None)
    export.add_argument(
        "--what",
        choices=["spec", "deps", "dfa"],
        default="spec",
        help="which model to export (default: the class specification)",
    )
    export.set_defaults(func=_cmd_export)

    suite = subparsers.add_parser(
        "suite", help="generate a transition-covering lifecycle test suite"
    )
    suite.add_argument("file")
    suite.add_argument("cls", nargs="?", default=None)
    suite.add_argument("--max", type=int, default=None, help="cap the suite size")
    suite.set_defaults(func=_cmd_suite)

    mine = subparsers.add_parser(
        "mine",
        help="mine a lifecycle automaton from monitored runs and diff it "
        "against the static model (docs/mining.md)",
    )
    mine.add_argument("file")
    mine.add_argument("cls", nargs="?", default=None)
    mine.add_argument(
        "--diff",
        action="store_true",
        help="check mined vs static by two-way kernel inclusion; an "
        "unsound divergence (mined accepts a spec-rejected lifecycle) "
        "fails the run",
    )
    _add_config_flags(mine, CollectConfig)
    mine.add_argument(
        "--corpus-out",
        default=None,
        metavar="FILE",
        help="save the collected trace corpora (per class, with "
        "per-prefix monitor evidence) as replayable JSON",
    )
    _add_obs_flags(mine)
    mine.set_defaults(func=_cmd_mine)

    report = subparsers.add_parser(
        "report", help="render a Markdown verification report"
    )
    report.add_argument("file")
    report.add_argument("--output", "-o", default=None, help="write to a file")
    report.set_defaults(func=_cmd_report)

    model = subparsers.add_parser("model", help="print inferred behaviors")
    model.add_argument("file")
    model.set_defaults(func=_cmd_model)

    deps = subparsers.add_parser("deps", help="print the dependency graph")
    deps.add_argument("file")
    deps.add_argument("cls", nargs="?", default=None)
    deps.add_argument("--dot", action="store_true", help="emit DOT instead of text")
    deps.set_defaults(func=_cmd_deps)

    viz = subparsers.add_parser("viz", help="emit a behavior diagram")
    viz.add_argument("file")
    viz.add_argument("cls", nargs="?", default=None)
    viz.add_argument("--dot", action="store_true", help="emit DOT instead of text")
    viz.add_argument("--output", "-o", default=None, help="write to a file")
    viz.set_defaults(func=_cmd_viz)

    nusmv = subparsers.add_parser("nusmv", help="emit a NuSMV model")
    nusmv.add_argument("file")
    nusmv.add_argument("cls", nargs="?", default=None)
    nusmv.set_defaults(func=_cmd_nusmv)

    theorems = subparsers.add_parser(
        "theorems", help="run the bounded metatheory checks"
    )
    theorems.add_argument("--size", type=int, default=4, help="max program size")
    theorems.add_argument("--length", type=int, default=5, help="max trace length")
    theorems.set_defaults(func=_cmd_theorems)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as error:
        print(error, file=_sys.stderr)
        raise
    except BudgetExceeded as error:
        print(f"error: {error}", file=_sys.stderr)
        return 1
    except BrokenPipeError:  # pragma: no cover - terminal plumbing
        return 0


if __name__ == "__main__":
    _sys.exit(main())
