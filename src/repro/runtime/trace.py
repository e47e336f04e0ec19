"""Execution-trace recording for the runtime monitor.

The static checker reasons about *all* traces; the runtime monitor
observes *one* — the sequence of operation calls an actual execution
performs.  Recorded traces use the same event vocabulary as the static
models (bare operation names, or ``field.method`` when the recorder is
given a field prefix), so a recorded trace can be replayed directly
against a :class:`repro.core.spec.ClassSpec` automaton or an LTLf claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class TraceRecorder:
    """An append-only event log shared by monitored instances."""

    events: list[str] = field(default_factory=list)

    def record(self, event: str) -> None:
        self.events.append(event)

    def as_trace(self) -> tuple[str, ...]:
        return tuple(self.events)

    def clear(self) -> None:
        self.events.clear()

    def __iter__(self) -> Iterator[str]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def format(self) -> str:
        return ", ".join(self.events)

    def scoped(self, field_name: str) -> "ScopedRecorder":
        """A view recording ``field_name.method`` events into this log.

        A composite's subsystem instance scopes its events the way the
        static models do (``Valve`` used as field ``a`` emits ``a.test``),
        so one shared recorder collects the *interleaved* hierarchical
        trace — directly replayable against ``spec.bitnfa(prefix="a.")``.
        Scoping nests: ``r.scoped("a").scoped("b")`` records ``a.b.m``.
        """
        return ScopedRecorder(root=self, prefix=_join_prefix("", field_name))


@dataclass(frozen=True)
class ScopedRecorder:
    """A prefixing view over a shared :class:`TraceRecorder`.

    Only :meth:`record` is scoped; the reading side lives on the root
    recorder, which owns the single interleaved event list.
    """

    root: TraceRecorder
    prefix: str

    def record(self, event: str) -> None:
        self.root.record(self.prefix + event)

    def scoped(self, field_name: str) -> "ScopedRecorder":
        return ScopedRecorder(
            root=self.root, prefix=_join_prefix(self.prefix, field_name)
        )


def _join_prefix(prefix: str, field_name: str) -> str:
    """Join a field name onto an event prefix, normalizing the dots.

    Accepts a bare field name (``"a"``) or an already-dotted one
    (``"a."``) and always produces exactly one trailing dot, so nested
    scopes never emit ``a..b.m`` or ``ab.m``.
    """
    if not field_name:
        raise ValueError("scoped() needs a non-empty field name")
    return prefix + field_name.rstrip(".") + "."
