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
records the evidence the learner's merge gates consume: what
:func:`~repro.runtime.monitor.allowed_now` and
:func:`~repro.runtime.monitor.is_finalizable` answer there, worked out
once per monitor state (docs/mining.md, "What collection costs").
Collection is a pure function of ``(implementation, spec, config)`` —
same seed, same corpus.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.core.spec import ClassSpec
from repro.mine.config import CollectConfig
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
    monitor_state,
    monitored,
    set_recorder,
)
from repro.runtime.trace import TraceRecorder
from repro.testing.conformance import generate_suite


class CollectError(Exception):
    """The implementation cannot be driven by the collector."""


class _Runs:
    """The monitored runs of one collection.

    The monitor is probed once per prefix, and a :class:`StepEvidence`
    is built once per monitor state: the evidence is a function of the
    state (:func:`~repro.runtime.monitor.monitor_state`), so a state
    seen before reuses its entry.  The memo lives as long as this
    collection.
    """

    def __init__(
        self,
        factory: Callable[[], object],
        recorder: TraceRecorder,
        notes: list[str],
    ):
        self.factory = factory
        self.recorder = recorder
        self.notes = notes
        self._evidence: dict[int | None, StepEvidence] = {}

    def probe(self, instance) -> StepEvidence:
        key = monitor_state(instance)
        evidence = self._evidence.get(key)
        if evidence is None:
            evidence = StepEvidence.of(allowed_now(instance), is_finalizable(instance))
            self._evidence[key] = evidence
        return evidence

    def call(self, instance, name: str, where: str) -> bool:
        """Perform ``name``; ``False`` ends the run.

        An :class:`OrderViolationError` means the implementation's data
        flow took another exit: the prefix performed so far is still
        evidence.  A :class:`SpecMismatchError` (a conformance fault) or
        a crashing body truncates the run and becomes a corpus note.
        """
        try:
            call_operation(instance, name)
        except OrderViolationError:
            return False
        except SpecMismatchError as error:
            self.notes.append(f"spec mismatch {where}: {error}")
            return False
        except Exception as error:  # noqa: BLE001 - op body crashed
            self.notes.append(
                f"crash in {name} {where}: {type(error).__name__}: {error}"
            )
            return False
        return True

    def replay(self, word: Sequence[str]) -> TraceSample:
        """Replay ``word`` on a fresh instance, finalizing when the
        monitor says the run is finalizable."""
        instance = self.factory()
        start = len(self.recorder)
        evidence = [self.probe(instance)]
        where = f"replaying {', '.join(word)}"
        for name in word:
            if not self.call(instance, name, where):
                break
            evidence.append(self.probe(instance))
        return self._sample(instance, start, evidence, KIND_COVER)

    def walk(self, rng: random.Random, max_len: int) -> TraceSample:
        """One random walk guided by the allowed set of the evidence
        just recorded."""
        instance = self.factory()
        start = len(self.recorder)
        evidence = [self.probe(instance)]
        for _ in range(max_len):
            allowed = evidence[-1].allowed
            if not allowed:
                break
            if evidence[-1].final and rng.random() < 0.3:
                break
            name = allowed[rng.randrange(len(allowed))]
            if not self.call(instance, name, "on random walk"):
                break
            evidence.append(self.probe(instance))
        return self._sample(instance, start, evidence, KIND_RANDOM)

    def _sample(
        self, instance, start: int, evidence: list[StepEvidence], kind: str
    ) -> TraceSample:
        completed = bool(evidence[-1].final)
        if completed:
            finalize(instance)
        return TraceSample(
            word=tuple(self.recorder.events[start:]),
            completed=completed,
            evidence=tuple(evidence),
            kind=kind,
        )


def random_lifecycles(
    spec: ClassSpec, rng: random.Random, runs: int, max_len: int
) -> list[tuple[str, ...]]:
    """Seeded random walks over the *static* specification automaton.

    Used for suite generation when no implementation is at hand (and by
    the determinism tests); the collector's walks follow the monitor
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
    runs = _Runs(factory, recorder, corpus.notes)
    try:
        suite = generate_suite(spec, config.max_sequences)
        for word in suite:
            corpus.add(runs.replay(word))
        tracer.event("mine-cover", class_name=spec.name, sequences=len(suite))
        rng = random.Random(config.seed)
        for _ in range(config.random_runs):
            corpus.add(runs.walk(rng, config.max_random_len))
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
