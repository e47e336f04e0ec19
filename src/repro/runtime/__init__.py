"""Runtime verification: dynamic enforcement of extracted models.

:func:`monitored` wraps an ``@sys`` class so every instance enforces its
specification at run time; :func:`finalize` / :class:`lifecycle` enforce
the final-operation requirement; :class:`TraceRecorder` captures the
observed event sequence for replay against static models.
"""

from repro.runtime.monitor import (
    IncompleteLifecycleError,
    MonitorError,
    OrderViolationError,
    SpecMismatchError,
    allowed_now,
    call_operation,
    finalize,
    history_of,
    is_finalizable,
    lifecycle,
    monitor_state,
    monitored,
    set_recorder,
)
from repro.runtime.trace import ScopedRecorder, TraceRecorder

__all__ = [
    "IncompleteLifecycleError",
    "MonitorError",
    "OrderViolationError",
    "ScopedRecorder",
    "SpecMismatchError",
    "TraceRecorder",
    "allowed_now",
    "call_operation",
    "finalize",
    "history_of",
    "is_finalizable",
    "lifecycle",
    "monitor_state",
    "monitored",
    "set_recorder",
]
