"""The ``repro cache serve`` daemon: sealed envelopes over HTTP.

A deliberately small stdlib server (:class:`ThreadingHTTPServer`) whose
storage is a server-side :class:`LocalDirBackend` — the daemon's disk
tree is byte-compatible with a worker's ``.repro-cache/``, so a cache
directory can be promoted to a shared remote by pointing the daemon at
it.

Routes:

* ``GET /healthz`` — liveness, ``{"ok": true}``;
* ``GET /stats`` — request counters (``corrupt`` counts unreadable
  entries deleted on read) and entry layout info;
* ``GET/PUT/DELETE /v1/cache/class/<key>`` — envelope transport; any
  other path is an unknown route (404).

Admission rules keep the store trustworthy and the tree traversal-proof:
keys must be lowercase hex (no dots, no slashes beyond the route's
own), bodies are size-capped, and a PUT body must be a sealed envelope
whose checksum verifies (``classify_entry`` says ``ok``) — the daemon
never persists junk, version-skewed, or tampered bytes, so every
remote hit a client promotes is already well-formed.

``repro cache serve --port 0`` binds an ephemeral port and prints the
resolved endpoint URL as its first stdout line (also written atomically
to ``<root>/cache-endpoint.json``) so scripts and CI can discover it.
"""

from __future__ import annotations

import json
import re
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.engine import store
from repro.engine.backends.local import LocalDirBackend

#: Sealed envelopes are a few KiB of JSON; anything near this cap is
#: not a cache entry.
MAX_BODY_BYTES = 32 * 1024 * 1024

_ENTRY_ROUTE = re.compile(r"^/v1/cache/class/([0-9a-f]{8,128})$")


class CacheServer(ThreadingHTTPServer):
    """HTTP front end over a server-side :class:`LocalDirBackend`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], root: Path | str) -> None:
        super().__init__(address, _CacheRequestHandler)
        self.backend = LocalDirBackend(Path(root))
        self.counters = {
            "hits": 0,
            "misses": 0,
            "corrupt": 0,
            "puts": 0,
            "deletes": 0,
            "rejected": 0,
        }
        self.counter_guard = threading.Lock()

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def count(self, name: str) -> None:
        with self.counter_guard:
            self.counters[name] += 1

    def stats_payload(self) -> dict:
        with self.counter_guard:
            counters = dict(self.counters)
        return {"ok": True, "root": str(self.backend.root), "counters": counters}


class _CacheRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-cache/1"
    server: CacheServer

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    def _send_json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_bytes(code, body, "application/json")

    def _send_bytes(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _key(self) -> str | None:
        match = _ENTRY_ROUTE.match(self.path)
        if match is None:
            self._send_json(404, {"error": "unknown route"})
            return None
        return match.group(1)

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/healthz":
            self._send_json(200, {"ok": True})
            return
        if self.path == "/stats":
            self._send_json(200, self.server.stats_payload())
            return
        key = self._key()
        if key is None:
            return
        try:
            text = self.server.backend.get_text(key)
        except OSError:
            # An entry the store cannot read (bytes that are not UTF-8)
            # is healed as a client heals it: deleted, and counted as
            # one miss and one corrupt entry.
            self.server.backend.delete(key)
            self.server.count("corrupt")
            text = None
        if text is None:
            self.server.count("misses")
            self._send_json(404, {"error": "miss"})
            return
        self.server.count("hits")
        self._send_bytes(200, text.encode("utf-8"), "application/json")

    def do_PUT(self) -> None:  # noqa: N802
        key = self._key()
        if key is None:
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length <= 0 or length > MAX_BODY_BYTES:
            self.server.count("rejected")
            self._send_json(413, {"error": "bad content length"})
            return
        body = self.rfile.read(length)
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            self.server.count("rejected")
            self._send_json(400, {"error": "body is not utf-8"})
            return
        from repro.engine.cache import classify_entry

        verdict, _ = classify_entry(text)
        if verdict != "ok":
            # The daemon is the shared tier; persisting an unverifiable
            # envelope would hand every client a guaranteed heal cycle.
            self.server.count("rejected")
            self._send_json(400, {"error": f"envelope rejected: {verdict}"})
            return
        try:
            self.server.backend.put_text(key, text)
        except OSError as err:
            self._send_json(507, {"error": f"store failed: {err}"})
            return
        self.server.count("puts")
        self._send_json(200, {"ok": True})

    def do_DELETE(self) -> None:  # noqa: N802
        key = self._key()
        if key is None:
            return
        if self.server.backend.delete(key):
            self.server.count("deletes")
            self._send_json(200, {"ok": True})
        else:
            self._send_json(404, {"error": "miss"})


def run_cache_server(
    root: Path | str, *, host: str = "127.0.0.1", port: int = 0
) -> CacheServer:
    """Start a cache daemon on a background thread (tests, embedding).

    Returns the running server; ``server.endpoint`` is the base URL and
    ``server.shutdown()`` stops it.
    """
    server = CacheServer((host, port), root)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-cache-server", daemon=True
    )
    thread.start()
    return server


def serve_cache(root: Path | str, *, host: str = "127.0.0.1", port: int = 8123) -> int:
    """Run the daemon in the foreground (``repro cache serve``)."""
    server = CacheServer((host, port), root)
    # First stdout line is the machine-readable endpoint (scripts parse
    # it when --port 0 picked an ephemeral port).
    print(server.endpoint, flush=True)
    endpoint_file = Path(root) / "cache-endpoint.json"
    try:
        store.atomic_write_text(
            endpoint_file, json.dumps({"endpoint": server.endpoint}) + "\n"
        )
    except OSError:
        pass

    def _terminate(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.shutdown()
        server.server_close()
    return 0
