"""Runtime enforcement of extracted models (dynamic typestate checking).

The static analysis proves properties of *all* executions; the monitor
enforces the same specification on *one* execution, raising at the exact
call that leaves the specification.  It serves two purposes in this
reproduction: it makes the examples self-checking, and it
cross-validates the static verdicts (a trace the static checker deems a
counterexample must also trip the monitor, and tests assert this).

The monitor tracks, per instance, the set of specification-automaton
states the execution may be in (a bitset over :attr:`ClassSpec.table`).
Because the monitor *sees* each call's return value, it can narrow that
set to the exit point actually taken — the dynamic analysis is strictly
more precise than the static abstraction, exactly as expected of an
over-approximating extraction.
"""

from __future__ import annotations

import functools
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Any

from repro.core.spec import START_BIT, ClassSpec
from repro.frontend.parse import parse_module
from repro.runtime.trace import TraceRecorder


class MonitorError(Exception):
    """Base class of runtime-verification failures."""


class OrderViolationError(MonitorError):
    """An operation was invoked when the specification forbids it."""


class SpecMismatchError(MonitorError):
    """A method returned a next-method set its specification never declares."""


class IncompleteLifecycleError(MonitorError):
    """An instance was finalized before reaching a final operation's exit."""


@dataclass
class _InstanceState:
    """Monitor bookkeeping attached to each constrained instance."""

    states: int = START_BIT
    history: list[str] = field(default_factory=list)
    finalized: bool = False


_STATE_ATTR = "__shelley_monitor_state__"
_RECORDER_ATTR = "__shelley_recorder__"


def _spec_from_class(cls: type) -> ClassSpec:
    """Extract the specification of ``cls`` from its own source code."""
    source = textwrap.dedent(inspect.getsource(cls))
    module, violations = parse_module(source, source_name=f"<{cls.__name__}>")
    errors = [v for v in violations if v.severity == "error"]
    if errors:
        raise MonitorError(
            f"cannot monitor {cls.__name__}: " + "; ".join(v.format() for v in errors)
        )
    parsed = module.get_class(cls.__name__)
    if parsed is None:
        raise MonitorError(f"{cls.__name__} is not an @sys class")
    return ClassSpec.of(parsed)


def _instance_state(instance: Any) -> _InstanceState:
    state = getattr(instance, _STATE_ATTR, None)
    if state is None:
        state = _InstanceState()
        object.__setattr__(instance, _STATE_ATTR, state)
    return state


def _next_method_set(result: Any) -> tuple[str, ...]:
    """The declared-successor component of an operation's return value.

    Handles the Table 2 forms: a plain list, or a tuple whose first
    position is the list (the rest is the user value).
    """
    value = result
    if isinstance(value, tuple) and value and isinstance(value[0], (list, tuple)):
        value = value[0]
    if isinstance(value, (list, tuple)) and all(isinstance(m, str) for m in value):
        return tuple(value)
    raise SpecMismatchError(
        f"operation returned {result!r}, which does not carry a next-method list"
    )


def monitored(cls: type, spec: ClassSpec | None = None, recorder: TraceRecorder | None = None) -> type:
    """Wrap an ``@sys`` class so instances enforce their specification.

    Every operation is intercepted: a call outside the allowed set raises
    :class:`OrderViolationError`; a return value whose next-method set no
    exit point declares raises :class:`SpecMismatchError`.  Call
    :func:`finalize` when the instance's lifetime ends to enforce the
    final-operation requirement.  When ``recorder`` is given, every
    successful call is appended to it.
    """
    if spec is None:
        spec = _spec_from_class(cls)
    existing: ClassSpec | None = cls.__dict__.get("__shelley_spec__")
    if existing is not None:
        # Already wrapped.  Wrapping again would stack the interceptors:
        # every call would be checked twice and recorded twice, so a
        # second ``monitored()`` with the same spec is a no-op and a
        # conflicting one is an error.
        if existing == spec:
            if recorder is not None:
                set_recorder(cls, recorder)
            return cls
        raise MonitorError(
            f"{cls.__name__} is already monitored with a different specification"
        )
    operation_names = set(spec.operation_names())

    for name in operation_names:
        original = getattr(cls, name, None)
        if original is None:
            raise MonitorError(
                f"specification of {cls.__name__} names operation {name!r} "
                "but the class has no such method"
            )
        setattr(cls, name, _wrap_operation(original, name, spec))

    setattr(cls, "__shelley_spec__", spec)
    setattr(cls, _RECORDER_ATTR, recorder)
    return cls


def set_recorder(cls: type, recorder: TraceRecorder | None) -> None:
    """Rebind (or detach, with ``None``) a monitored class's recorder.

    The interceptors look the recorder up at call time, so a corpus
    collector can attach a fresh recorder per run without re-wrapping.
    """
    if getattr(cls, "__shelley_spec__", None) is None:
        raise MonitorError(f"{cls.__name__} is not monitored")
    setattr(cls, _RECORDER_ATTR, recorder)


def _wrap_operation(original, name: str, spec: ClassSpec):
    table = spec.table
    narrowing = table.narrowing

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        state = _instance_state(self)
        if state.finalized:
            raise OrderViolationError(
                f"{spec.name}.{name} invoked after the instance was finalized"
            )
        allowed = table.allowed(state.states)
        if name not in allowed:
            history = ", ".join(state.history) or "(no call yet)"
            legal = ", ".join(sorted(allowed)) or "(none)"
            raise OrderViolationError(
                f"{spec.name}.{name} not allowed here; history: {history}; "
                f"allowed now: {legal}"
            )
        result = original(self, *args, **kwargs)
        # The common return, a plain list of declared names, is one
        # lookup; every other form, and a list it misses, is decided by
        # the full check.
        matching_exits = 0
        if type(result) is list:
            try:
                matching_exits = narrowing.get((name, tuple(result)), 0)
            except TypeError:  # an unhashable element, refused below
                pass
        if not matching_exits:
            declared = _next_method_set(result)
            matching_exits = table.narrow(name, declared)
            if not matching_exits:
                raise SpecMismatchError(
                    f"{spec.name}.{name} returned next-method set {list(declared)}, "
                    "which no declared exit point produces"
                )
        state.states = matching_exits
        state.history.append(name)
        recorder = getattr(type(self), _RECORDER_ATTR, None)
        if recorder is not None:
            recorder.record(name)
        return result

    return wrapper


def _spec_of(instance: Any) -> ClassSpec:
    spec: ClassSpec | None = getattr(type(instance), "__shelley_spec__", None)
    if spec is None:
        raise MonitorError(f"{type(instance).__name__} is not monitored")
    return spec


def allowed_now(instance: Any) -> frozenset[str]:
    """Operations the monitor would currently allow on ``instance``.

    This is the *dynamic* view: the monitor has narrowed the state set
    to the exit points actually taken, so the result can be a strict
    subset of what the static specification allows after the same call
    history.  Model miners read it as per-prefix negative evidence —
    every operation outside the set is a forbidden continuation.
    """
    spec = _spec_of(instance)
    state = _instance_state(instance)
    if state.finalized:
        return frozenset()
    return spec.table.allowed(state.states)


def monitor_state(instance: Any) -> int | None:
    """The spec states ``instance`` may be in, as a bitset over
    :attr:`ClassSpec.table`, or ``None`` once it is finalized.

    :func:`allowed_now` and :func:`is_finalizable` are functions of this
    value and the class's specification, so whatever is derived from
    them for the instances of one monitored class may be keyed on it.
    """
    state = _instance_state(instance)
    return None if state.finalized else state.states


def is_finalizable(instance: Any) -> bool:
    """Would :func:`finalize` succeed right now?  (No side effects.)"""
    spec = _spec_of(instance)
    state = _instance_state(instance)
    if state.finalized:
        return False
    return bool(state.states & spec.table.accepting)


def finalize(instance: Any) -> None:
    """Assert that ``instance`` completed a valid lifecycle.

    Legal when no operation was ever invoked (the empty lifecycle) or
    when the last operation invoked was final; raises
    :class:`IncompleteLifecycleError` otherwise.
    """
    spec = _spec_of(instance)
    state = _instance_state(instance)
    if not state.states & spec.table.accepting:
        history = ", ".join(state.history) or "(no call)"
        raise IncompleteLifecycleError(
            f"{spec.name} instance finalized mid-lifecycle; history: {history}"
        )
    state.finalized = True


def call_operation(instance: Any, name: str, *args: Any, **kwargs: Any) -> Any:
    """Invoke operation ``name`` on ``instance``, resolved through its class.

    Drivers must not use ``getattr(instance, name)()``: the paper's own
    ``Valve`` assigns ``self.clean = Pin(28, OUT)`` in ``__init__``,
    shadowing the ``clean`` operation in the instance dict.  Class-side
    lookup always reaches the (monitored) method.
    """
    spec = _spec_of(instance)
    if name not in spec.table.exits:
        raise MonitorError(f"{spec.name} declares no operation {name!r}")
    return getattr(type(instance), name)(instance, *args, **kwargs)


def history_of(instance: Any) -> tuple[str, ...]:
    """The operations successfully invoked on ``instance``, in order."""
    return tuple(_instance_state(instance).history)


class lifecycle:
    """Context manager enforcing finalization::

        with lifecycle(valve):
            follow = valve.test()
            ...
    """

    def __init__(self, instance: Any):
        self._instance = instance

    def __enter__(self):
        return self._instance

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            finalize(self._instance)
        return False
