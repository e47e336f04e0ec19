"""Trace-corpus collection: drive monitored implementations, record runs.

Two drivers feed the miner:

* the **transition-covering** suite of the static specification
  (:func:`repro.testing.paths.transition_cover`) — the same lifecycles
  the conformance harness replays, so a corpus systematically exercises
  every live transition the static model claims exists;
* **seeded random lifecycles** — walks that, at each step, draw the next
  operation from what the monitor *currently* allows, so every random
  run makes progress and the corpus samples the dynamically feasible
  language beyond the cover's shortest witnesses.

Every run is recorded through a :class:`~repro.runtime.trace.TraceRecorder`
attached to the monitored class, and at every prefix the collector
probes the monitor (:func:`~repro.runtime.monitor.allowed_now`,
:func:`~repro.runtime.monitor.is_finalizable`) for the evidence the
learner's merge gates consume.  Collection is a pure function of
``(implementation, spec, config)`` — same seed, same corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.spec import ClassSpec
from repro.mine.corpus import (
    KIND_COVER,
    KIND_RANDOM,
    StepEvidence,
    TraceCorpus,
    TraceSample,
)
from repro.obs.tracer import NULL_TRACER
from repro.runtime.monitor import (
    OrderViolationError,
    SpecMismatchError,
    allowed_now,
    call_operation,
    finalize,
    is_finalizable,
    monitored,
    set_recorder,
)
from repro.runtime.trace import TraceRecorder
from repro.testing.conformance import generate_suite


class CollectError(Exception):
    """The implementation cannot be driven by the collector."""


@dataclass(frozen=True)
class CollectConfig:
    """Deterministic knobs of one collection run."""

    seed: int = 0
    random_runs: int = 32
    max_random_len: int = 12
    max_sequences: int | None = None

    def __post_init__(self) -> None:
        if self.random_runs < 0:
            raise ValueError("random_runs must be >= 0")
        if self.max_random_len < 1:
            raise ValueError("max_random_len must be >= 1")
        if self.max_sequences is not None and self.max_sequences < 0:
            raise ValueError(f"max_sequences must be >= 0, got {self.max_sequences}")


def _probe(instance) -> StepEvidence:
    return StepEvidence.of(allowed_now(instance), is_finalizable(instance))


def _drive(
    factory: Callable[[], object],
    word: Sequence[str],
    recorder: TraceRecorder,
    kind: str,
    notes: list[str],
) -> TraceSample:
    """Replay ``word`` on a fresh instance, probing evidence per prefix.

    Stops at the first :class:`OrderViolationError` (the implementation's
    data flow took another exit — the prefix performed so far is still
    evidence); finalizes when the monitor says the run is finalizable.
    A :class:`SpecMismatchError` is a conformance fault: the run is
    truncated and the fault recorded as a corpus note.
    """
    instance = factory()
    start = len(recorder)
    evidence = [_probe(instance)]
    for name in word:
        try:
            call_operation(instance, name)
        except OrderViolationError:
            break
        except SpecMismatchError as error:
            notes.append(f"spec mismatch replaying {', '.join(word)}: {error}")
            break
        except Exception as error:  # noqa: BLE001 - op body crashed
            notes.append(
                f"crash in {name} replaying {', '.join(word)}: "
                f"{type(error).__name__}: {error}"
            )
            break
        evidence.append(_probe(instance))
    performed = recorder.as_trace()[start:]
    completed = bool(evidence[-1].final)
    if completed:
        finalize(instance)
    return TraceSample(
        word=performed,
        completed=completed,
        evidence=tuple(evidence),
        kind=kind,
    )


def random_lifecycles(
    spec: ClassSpec, rng: random.Random, runs: int, max_len: int
) -> list[tuple[str, ...]]:
    """Seeded random walks over the *static* specification automaton.

    Used for suite generation when no implementation is at hand (and by
    the determinism tests); the dynamic driver below walks the monitor
    instead, which narrows to the feasible subset automatically.
    """
    dfa = spec.dfa()
    symbols = dfa.alphabet.symbols
    k = len(symbols)
    words: list[tuple[str, ...]] = []
    for _ in range(runs):
        state = dfa.initial
        word: list[str] = []
        for _ in range(max_len):
            row = dfa.delta[state * k : state * k + k]
            moves = [symbol_id for symbol_id, target in enumerate(row) if target >= 0]
            if not moves:
                break
            if dfa.accepting >> state & 1 and rng.random() < 0.3:
                break
            symbol_id = moves[rng.randrange(len(moves))]
            state = row[symbol_id]
            word.append(symbols[symbol_id])
        words.append(tuple(word))
    return words


def _random_drive(
    factory: Callable[[], object],
    rng: random.Random,
    max_len: int,
    recorder: TraceRecorder,
    notes: list[str],
) -> TraceSample:
    """One random walk guided by the monitor's allowed set."""
    instance = factory()
    start = len(recorder)
    evidence = [_probe(instance)]
    for _ in range(max_len):
        allowed = sorted(allowed_now(instance))
        if not allowed:
            break
        if is_finalizable(instance) and rng.random() < 0.3:
            break
        name = allowed[rng.randrange(len(allowed))]
        try:
            call_operation(instance, name)
        except OrderViolationError:  # pragma: no cover - allowed_now gates this
            break
        except SpecMismatchError as error:
            notes.append(f"spec mismatch on random walk: {error}")
            break
        except Exception as error:  # noqa: BLE001 - op body crashed
            notes.append(
                f"crash in {name} on random walk: "
                f"{type(error).__name__}: {error}"
            )
            break
        evidence.append(_probe(instance))
    performed = recorder.as_trace()[start:]
    completed = bool(evidence[-1].final)
    if completed:
        finalize(instance)
    return TraceSample(
        word=performed,
        completed=completed,
        evidence=tuple(evidence),
        kind=KIND_RANDOM,
    )


def collect_corpus(
    implementation: type,
    spec: ClassSpec,
    config: CollectConfig = CollectConfig(),
    factory: Callable[[], object] | None = None,
    tracer=NULL_TRACER,
) -> TraceCorpus:
    """Collect a trace corpus from ``implementation`` monitored by ``spec``."""
    wrapped = monitored(implementation, spec=spec)
    if factory is None:
        factory = wrapped
    try:
        factory()
    except Exception as error:  # noqa: BLE001 - any ctor failure ends the run
        raise CollectError(
            f"cannot instantiate {spec.name}: {type(error).__name__}: "
            f"{error}; mining drives classes through a no-argument "
            "factory — pass factory=... for constructors that need "
            "arguments"
        ) from error
    recorder = TraceRecorder()
    set_recorder(wrapped, recorder)
    corpus = TraceCorpus(class_name=spec.name, alphabet=spec.operation_names())
    try:
        suite = generate_suite(spec, config.max_sequences)
        for word in suite:
            corpus.add(_drive(factory, word, recorder, KIND_COVER, corpus.notes))
        tracer.event("mine-cover", class_name=spec.name, sequences=len(suite))
        rng = random.Random(config.seed)
        for _ in range(config.random_runs):
            corpus.add(
                _random_drive(
                    factory, rng, config.max_random_len, recorder, corpus.notes
                )
            )
        if config.random_runs:
            tracer.event(
                "mine-random", class_name=spec.name, runs=config.random_runs
            )
    finally:
        set_recorder(wrapped, None)
    return corpus


def transition_coverage(spec: ClassSpec, corpus: TraceCorpus) -> float:
    """Fraction of the spec DFA's live transitions the corpus exercised.

    Runs every sample word through the static automaton and counts the
    distinct ``(state, symbol)`` moves taken; the denominator is the
    automaton's full transition relation (live by construction).
    """
    dfa = spec.dfa()
    total = sum(1 for target in dfa.delta if target >= 0)
    if total == 0:
        return 1.0
    k = len(dfa.alphabet)
    covered: set[int] = set()  # moves taken, as slots ``state * k + symbol id``
    for sample in corpus:
        state = dfa.initial
        for symbol in sample.word:
            symbol_id = dfa.alphabet.get(symbol)
            slot = state * k + symbol_id
            if symbol_id < 0 or dfa.delta[slot] < 0:
                break
            covered.add(slot)
            state = dfa.delta[slot]
    return len(covered) / total
