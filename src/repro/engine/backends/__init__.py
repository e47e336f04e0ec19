"""Pluggable storage backends for the inference cache.

See :mod:`repro.engine.backends.base` for the protocol and
docs/distributed.md for the deployment picture.  The HTTP daemon lives
in :mod:`repro.engine.backends.server` and is imported on demand (it
drags :mod:`http.server` in; nothing on the ``repro check`` hot path
needs it).
"""

from repro.engine.backends.base import CacheBackend, RemoteUnavailable
from repro.engine.backends.local import LocalDirBackend
from repro.engine.backends.remote import RemoteHTTPBackend
from repro.engine.backends.tiered import TieredBackend

__all__ = [
    "CacheBackend",
    "LocalDirBackend",
    "RemoteHTTPBackend",
    "RemoteUnavailable",
    "TieredBackend",
]
