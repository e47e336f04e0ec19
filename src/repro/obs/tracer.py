"""Hierarchical spans, events and counters (the tracing core).

The span tree mirrors the paper's pipeline structure::

    run
      wave 0
        class Device0
          parse | dependency | infer | determinize | minimize | usage | claims | vacuity
        class ...
      wave 1
        ...

Two kinds of span exist:

* **live spans** (:meth:`Tracer.span`) — context managers that measure
  their own wall time and nest under the currently-open span;
* **recorded spans** (:meth:`Span.child`) — pre-measured records grafted
  into the tree, which is how per-class phase timings collected inside a
  process-pool worker (as a plain picklable dict, see
  :meth:`Tracer.phase_totals`) are merged back into the coordinator's
  tree.

**The disabled fast path.**  :data:`NULL_TRACER` is the default
everywhere a tracer parameter exists.  Its ``span()`` returns one shared
singleton context manager — no allocation, no clock read, no branch
beyond the method call — so instrumentation left in hot paths is
near-free when tracing is off (the bound is asserted by the bench smoke
gate, see docs/observability.md).

The tracer is deliberately *not* thread-safe: the engine only traces
from its coordinator thread and merges worker-collected phase dicts,
which keeps the hot worker path free of shared state.
"""

from __future__ import annotations

import time
from typing import Any, Callable

#: The per-class pipeline phases, in pipeline order.  Every class span in
#: an engine trace carries exactly these children (phases that did not
#: run for a class are present with a non-``ok`` status), which is what
#: makes span trees structurally identical across job counts and cache
#: temperatures.
PHASES = (
    "parse",
    "dependency",
    "infer",
    "determinize",
    "minimize",
    "usage",
    "claims",
    "vacuity",
)

#: Span statuses: ``ok`` ran, ``cached`` was served from the verdict
#: cache, ``skipped`` does not apply to the class (e.g. ``determinize``
#: on a base class), ``quarantined`` was lost to an engine failure.
STATUSES = ("ok", "cached", "skipped", "quarantined")

#: Schema version stamped into every exported trace and metrics file.
TRACE_SCHEMA = 1


class Span:
    """One node of the span tree (also a context manager when live)."""

    __slots__ = (
        "kind",
        "name",
        "seconds",
        "status",
        "attrs",
        "children",
        "events",
        "_tracer",
        "_started",
    )

    def __init__(
        self,
        kind: str,
        name: str,
        *,
        tracer: "Tracer | None" = None,
        seconds: float = 0.0,
        status: str = "ok",
        attrs: dict[str, Any] | None = None,
    ):
        self.kind = kind
        self.name = name
        self.seconds = seconds
        self.status = status
        self.attrs: dict[str, Any] = dict(attrs or {})
        self.children: list[Span] = []
        self.events: list[dict[str, Any]] = []
        self._tracer = tracer
        self._started = 0.0

    # -- live timing ----------------------------------------------------

    def __enter__(self) -> "Span":
        assert self._tracer is not None, "recorded spans cannot be entered"
        self._tracer._push(self)
        self._started = self._tracer._clock()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        self.seconds = self._tracer._clock() - self._started
        if exc_type is not None and self.status == "ok":
            self.status = "error"
        self._tracer._pop(self)
        return False

    # -- tree building --------------------------------------------------

    def child(
        self,
        kind: str,
        name: str,
        *,
        seconds: float = 0.0,
        status: str = "ok",
        **attrs: Any,
    ) -> "Span":
        """Attach a pre-measured record (no clock involved)."""
        span = Span(kind, name, seconds=seconds, status=status, attrs=attrs)
        self.children.append(span)
        return span

    def annotate(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def event(self, name: str, **attrs: Any) -> None:
        self.events.append({"name": name, **attrs})

    # -- export ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The whole subtree as plain JSON-ready data."""
        node: dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "seconds": self.seconds,
            "status": self.status,
        }
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.events:
            node["events"] = [dict(event) for event in self.events]
        node["children"] = [child.to_dict() for child in self.children]
        return node

    def walk(self):
        """Depth-first iteration over the subtree (self first)."""
        yield self
        for child in self.children:
            yield from child.walk()


class _NullSpan:
    """The shared no-op span: every method swallows everything."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def child(self, *_args, **_attrs) -> "_NullSpan":
        return self

    def annotate(self, **_attrs) -> None:
        pass

    def event(self, _name, **_attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every call is a constant-time no-op.

    ``span()`` returns the same singleton object on every call — no
    allocation happens on the disabled path, which is what keeps
    instrumented hot loops at their un-instrumented speed.
    """

    enabled = False

    def span(self, _kind, _name="", **_attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, _name, **_attrs) -> None:
        pass

    def counter(self, _name, _value=1) -> None:
        pass

    def annotate(self, **_attrs) -> None:
        pass

    @property
    def current(self) -> None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Collects one span tree plus run-wide counters.

    Spans opened while another span is live nest under it; spans opened
    at top level become children of the implicit root.  ``export()``
    returns the finished tree as plain dicts, which every sink consumes.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.root = Span("trace", "root")
        self._stack: list[Span] = [self.root]
        self.counters: dict[str, float] = {}

    # -- span stack -----------------------------------------------------

    @property
    def current(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if len(self._stack) > 1 else None

    def span(self, kind: str, name: str = "", **attrs: Any) -> Span:
        span = Span(kind, name, tracer=self, attrs=attrs)
        return span

    def _push(self, span: Span) -> None:
        self._stack[-1].children.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        assert self._stack[-1] is span, "span exited out of order"
        self._stack.pop()

    # -- events and counters --------------------------------------------

    def event(self, name: str, **attrs: Any) -> None:
        """Attach a structured event to the innermost open span."""
        self._stack[-1].event(name, **attrs)
        self.counters[f"event.{name}"] = self.counters.get(f"event.{name}", 0) + 1

    def counter(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def annotate(self, **attrs: Any) -> None:
        """Merge attributes into the innermost open span (no-op at top)."""
        self._stack[-1].annotate(**attrs)

    # -- worker-side aggregation ----------------------------------------

    def phase_totals(self) -> dict[str, dict[str, Any]]:
        """Phase-span aggregate as a plain picklable dict.

        ``{phase name: {"seconds": total, "attrs": merged}}`` — the form
        a process-pool worker ships back to the coordinator, which
        grafts it under the right class span (same-named phase spans,
        e.g. two ``infer`` stretches, sum their time).
        """
        totals: dict[str, dict[str, Any]] = {}
        for span in self.root.walk():
            if span.kind != "phase":
                continue
            entry = totals.setdefault(span.name, {"seconds": 0.0, "attrs": {}})
            entry["seconds"] += span.seconds
            entry["attrs"].update(span.attrs)
        return totals

    # -- export ---------------------------------------------------------

    def export(self) -> dict[str, Any]:
        """The finished tree (implicit root included) as plain dicts."""
        return self.root.to_dict()

    def phase_aggregate(self) -> dict[str, dict[str, float]]:
        """Run-wide per-phase totals: ``{phase: {seconds, calls}}``.

        Spans with a non-``ok`` status count as calls of zero duration,
        so the aggregate always lists every phase the tree contains.
        """
        aggregate: dict[str, dict[str, float]] = {}
        for span in self.root.walk():
            if span.kind != "phase":
                continue
            entry = aggregate.setdefault(span.name, {"seconds": 0.0, "calls": 0})
            entry["seconds"] += span.seconds
            entry["calls"] += 1
        return aggregate
