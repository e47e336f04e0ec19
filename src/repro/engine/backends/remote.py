"""HTTP transport for sealed cache envelopes.

Client side of the ``repro cache serve`` daemon
(:mod:`repro.engine.backends.server`): sealed envelope text is GET/PUT
against ``/v1/cache/class/<key>`` using nothing but
:mod:`urllib.request`.  The content keys are SHA-256 digests of
canonical renderings, so they are machine-independent — any class any
worker anywhere has verified is a hit for every other worker sharing
the endpoint.

Failure model: *every* transport problem (connection refused, timeout,
HTTP 5xx/4xx other than 404, an injected ``remote-*`` fault) surfaces
as :class:`~repro.engine.backends.base.RemoteUnavailable`.  The cache
treats that as a plain miss, and :class:`TieredBackend` feeds it into
its degradation counter; a down remote can slow a run, never corrupt
or fail it.  Trust model: the client never trusts remote bytes — the
seal is re-verified by the cache (and by the tiered promotion path)
before any payload is used.

Fault sites ``remote-get`` / ``remote-put`` fire before each request
with key ``class/<key>``, so CI can rehearse flaky and dead
remotes deterministically (docs/robustness.md).
"""

from __future__ import annotations

import urllib.error
import urllib.request

from repro.engine import faults
from repro.engine.backends.base import CacheBackend, RemoteUnavailable

#: Seconds a single cache request may take before the remote is treated
#: as unavailable.  Verification work dwarfs a LAN round trip; anything
#: slower than this is a remote worth degrading away from.
DEFAULT_REQUEST_TIMEOUT = 10.0


class RemoteHTTPBackend(CacheBackend):
    """Sealed envelopes served by a ``repro cache serve`` endpoint."""

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        super().__init__()
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _url(self, key: str) -> str:
        return f"{self.base_url}/v1/cache/class/{key}"

    def get_text(self, key: str) -> str | None:
        try:
            faults.fire("remote-get", f"class/{key}")
            request = urllib.request.Request(self._url(key), method="GET")
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                text = response.read().decode("utf-8")
        except urllib.error.HTTPError as err:
            err.close()
            if err.code == 404:
                self._count("remote_misses")
                self._event("remote-miss", key=key)
                return None
            self._count("remote_errors")
            raise RemoteUnavailable(
                f"remote cache GET class/{key} failed: HTTP {err.code}"
            ) from err
        except (OSError, ValueError, faults.InjectedFault) as err:
            self._count("remote_errors")
            raise RemoteUnavailable(
                f"remote cache GET class/{key} failed: {err}"
            ) from err
        self._count("remote_hits")
        self._event("remote-hit", key=key)
        return text

    def put_text(self, key: str, text: str) -> None:
        try:
            faults.fire("remote-put", f"class/{key}")
            request = urllib.request.Request(
                self._url(key),
                data=text.encode("utf-8"),
                method="PUT",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                response.read()
        except (OSError, ValueError, faults.InjectedFault) as err:
            self._count("remote_errors")
            raise RemoteUnavailable(
                f"remote cache PUT class/{key} failed: {err}"
            ) from err
        self._count("remote_puts")
        self._event("remote-put", key=key)

    def delete(self, key: str) -> bool:
        try:
            request = urllib.request.Request(self._url(key), method="DELETE")
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                response.read()
        except urllib.error.HTTPError as err:
            err.close()
            if err.code == 404:
                return False
            raise RemoteUnavailable(
                f"remote cache DELETE class/{key} failed: HTTP {err.code}"
            ) from err
        except (OSError, ValueError) as err:
            raise RemoteUnavailable(
                f"remote cache DELETE class/{key} failed: {err}"
            ) from err
        return True

    def ping(self) -> bool:
        """Is the endpoint up?  Never raises."""
        try:
            request = urllib.request.Request(f"{self.base_url}/healthz", method="GET")
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                response.read()
        except (OSError, ValueError):
            return False
        return True

    def _count(self, field: str) -> None:
        stats = self._stats()
        if stats is not None:
            setattr(stats, field, getattr(stats, field) + 1)
