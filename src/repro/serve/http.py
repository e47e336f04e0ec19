"""A minimal asyncio HTTP/1.1 layer for the verification daemon.

Hand-rolled on :func:`asyncio.start_server` — the repo is stdlib-only —
and deliberately small: one request per connection, JSON in and out,
no TLS, loopback by default.  Routes::

    GET  /healthz             liveness (process + dispatcher alive)
    GET  /readyz              readiness (200 admitting / 503 + blockers)
    GET  /metrics             Prometheus text (repro_serve_* family)
    POST /v1/jobs             submit {"tenant": ..., "files": {...}}
                              → 202 job record | 400 invalid | 429/503
                              explicit shed with a Retry-After header
    GET  /v1/jobs             every known job (journal survivors too)
    GET  /v1/jobs/<id>        one job (the report rides along when done)
    GET  /v1/jobs/<id>/events NDJSON stream of state transitions until
                              the job is terminal
                              (both: 410 + reason for a retired job,
                              404 for an id never issued)
    POST /v1/drain            begin graceful drain (202; idempotent)

The ``serve-respond`` fault site fires just before each response is
written (key = the route path), so tests can kill or delay the daemon
at the exact moment a verdict is leaving the building.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from typing import Any

from repro.engine import faults, store
from repro.serve.config import ServeConfig, ServeConfigError
from repro.serve.jobs import JobError
from repro.serve.queue import REASON_DRAINING, AdmissionError
from repro.serve.service import VerificationService

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Shed reasons that are the daemon's condition (503), not the
#: caller's demand exceeding capacity (429).
_UNAVAILABLE_REASONS = frozenset({REASON_DRAINING, "breaker-open"})

_EVENT_POLL = 0.25

#: Largest accepted request body; a request that declares more gets 413.
MAX_BODY_BYTES = 5 * 1024 * 1024


class _BadRequest(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_request(reader: asyncio.StreamReader) -> tuple[str, str, bytes]:
    """Parse one request; returns (method, path, body)."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        raise _BadRequest(400, "unreadable request")
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise _BadRequest(400, "malformed request line")
    method, path, _version = parts
    content_length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                raise _BadRequest(400, "bad Content-Length")
    if content_length > MAX_BODY_BYTES:
        raise _BadRequest(
            413, f"body of {content_length} bytes exceeds the {MAX_BODY_BYTES} cap"
        )
    body = b""
    if content_length:
        body = await reader.readexactly(content_length)
    return method, path.split("?", 1)[0], body


def _response_bytes(
    status: int,
    payload: bytes,
    content_type: str,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


def _json_response(
    status: int, payload: Any, extra_headers: dict[str, str] | None = None
) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return _response_bytes(status, body, "application/json", extra_headers)


def _unknown_job(service: VerificationService, job_id: str) -> bytes:
    """410 for a job the daemon retired, 404 for any other unknown id."""
    if service.retired(job_id):
        return _json_response(
            410,
            {
                "error": f"job {job_id!r} was retired: the daemon keeps "
                "only its newest finished jobs",
                "reason": "retired",
            },
        )
    return _json_response(404, {"error": f"no job {job_id!r}"})


class ServeApp:
    """Routes HTTP requests onto one :class:`VerificationService`."""

    def __init__(self, service: VerificationService):
        self.service = service

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        route = "?"
        try:
            try:
                method, path, body = await _read_request(reader)
                route = path
                response = await self._dispatch(method, path, body, writer)
            except _BadRequest as error:
                response = _json_response(
                    error.status, {"error": str(error)}
                )
            except AdmissionError as error:
                status = (
                    503 if error.reason in _UNAVAILABLE_REASONS else 429
                )
                response = _json_response(
                    status,
                    {
                        "error": str(error),
                        "reason": error.reason,
                        "retry_after_seconds": round(error.retry_after, 3),
                    },
                    {"Retry-After": str(max(1, round(error.retry_after)))},
                )
            except (JobError, json.JSONDecodeError) as error:
                response = _json_response(400, {"error": str(error)})
            except Exception as error:  # incl. injected serve-accept faults
                response = _json_response(
                    500, {"error": f"{type(error).__name__}: {error}"}
                )
            if response is not None:
                faults.fire("serve-respond", route)
                writer.write(response)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> bytes | None:
        service = self.service
        if path == "/healthz" and method == "GET":
            health = service.healthz()
            return _json_response(200 if health["ok"] else 503, health)
        if path == "/readyz" and method == "GET":
            ready, detail = service.readyz()
            return _json_response(200 if ready else 503, detail)
        if path == "/metrics" and method == "GET":
            return _response_bytes(
                200,
                service.prometheus().encode("utf-8"),
                "text/plain; version=0.0.4",
            )
        if path == "/v1/jobs" and method == "POST":
            payload = json.loads(body.decode("utf-8") or "null")
            if not isinstance(payload, dict):
                raise _BadRequest(400, "body must be a JSON object")
            tenant = payload.get("tenant", "default")
            files = payload.get("files")
            if not isinstance(tenant, str) or not tenant:
                raise _BadRequest(400, "tenant must be a non-empty string")
            if not isinstance(files, dict):
                raise _BadRequest(
                    400, 'need "files": {"<name>.py": "<source>", ...}'
                )
            job = service.submit(tenant, files)
            return _json_response(202, job.summary())
        if path == "/v1/jobs" and method == "GET":
            return _json_response(200, {"jobs": service.job_summaries()})
        if path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                await self._stream_events(rest[: -len("/events")].rstrip("/"), writer)
                return None
            job = service.jobs.get(rest)
            if job is None:
                return _unknown_job(service, rest)
            return _json_response(200, job.summary())
        if path == "/v1/drain" and method == "POST":
            # Kick the drain off without holding this request open.
            asyncio.get_running_loop().create_task(service.drain())
            return _json_response(202, {"draining": True})
        if path in ("/healthz", "/readyz", "/metrics", "/v1/jobs", "/v1/drain"):
            return _json_response(
                405, {"error": f"{method} not supported on {path}"}
            )
        return _json_response(404, {"error": f"no route {path}"})

    async def _stream_events(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        """NDJSON job-state stream: one line per observed transition,
        closing once the job is terminal."""
        service = self.service
        job = service.jobs.get(job_id)
        if job is None:
            writer.write(_unknown_job(service, job_id))
            await writer.drain()
            return
        faults.fire("serve-respond", f"/v1/jobs/{job_id}/events")
        writer.write(
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n".encode("latin-1")
        )
        last: tuple[str, int] | None = None
        while True:
            job = service.jobs.get(job_id)
            if job is None:
                break
            current = (job.state, job.attempts)
            if current != last:
                last = current
                writer.write(
                    (json.dumps(job.summary(), sort_keys=True) + "\n").encode(
                        "utf-8"
                    )
                )
                await writer.drain()
            if job.terminal or service.drained:
                break
            await service.updated(_EVENT_POLL)


# ----------------------------------------------------------------------
# Daemon lifecycle
# ----------------------------------------------------------------------

def _write_endpoint(config: ServeConfig, host: str, port: int) -> None:
    """Record where the daemon listens (port 0 runs need this)."""
    record = store.seal(
        {"host": host, "port": port, "pid": os.getpid()}
    )
    store.atomic_write_text(
        config.serve_root / "endpoint.json",
        json.dumps(record, indent=2, sort_keys=True),
    )


async def serve_forever(config: ServeConfig) -> int:
    """Run the daemon until SIGTERM/SIGINT, then drain gracefully.

    On a signal the listener *stays open* while in-flight jobs finish —
    health endpoints keep answering (``/readyz`` flips to 503 the moment
    the drain starts) — and closes once the drain completes.
    """
    service = VerificationService(config)
    # Listen before recovering: a start refused for a busy address must
    # leave the journal of the daemon that holds it alone.  Requests are
    # handled only once this coroutine suspends, which it does not do
    # between the bind and the recovery.
    try:
        server = await asyncio.start_server(
            ServeApp(service).handle, config.host, config.port
        )
    except OSError as error:
        raise ServeConfigError(
            f"cannot listen on {config.host}:{config.port}: {error}"
        ) from None
    # Recover before the dispatcher exists: the ready line must hit
    # stdout before a recovered job can re-trigger an injected crash.
    recovered = service.recover()
    host, port = server.sockets[0].getsockname()[:2]
    _write_endpoint(config, host, port)
    print(
        f"repro serve listening on http://{host}:{port} "
        f"(pid {os.getpid()}, {recovered} job(s) recovered from the journal)",
        flush=True,
    )
    await service.start()  # recovery is done; this starts the dispatcher
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-POSIX loop: Ctrl-C still raises KeyboardInterrupt

    async def _stopped() -> None:
        await stop.wait()

    drain_watch = asyncio.create_task(_stopped())
    service_drained = asyncio.create_task(_wait_drained(service))
    done, _pending = await asyncio.wait(
        (drain_watch, service_drained), return_when=asyncio.FIRST_COMPLETED
    )
    print("repro serve: drain requested; intake stopped", file=sys.stderr, flush=True)
    summary = await service.drain()
    server.close()
    await server.wait_closed()
    for task in (drain_watch, service_drained):
        task.cancel()
    print(
        "repro serve: drained "
        f"({summary['completed']} completed, "
        f"{summary['checkpointed']} checkpointed for the next start)",
        file=sys.stderr,
        flush=True,
    )
    return 0


async def _wait_drained(service: VerificationService) -> None:
    """Completes once an API-initiated drain (POST /v1/drain) finishes."""
    while not service.drained:
        await asyncio.sleep(0.1)
