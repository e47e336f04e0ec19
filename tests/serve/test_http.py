"""The daemon over real HTTP: one ``repro serve`` subprocess per test
(or shared where read-only), driven with stdlib urllib."""

import asyncio
import json
import socket
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.serve.config import ServeConfigError
from repro.serve.http import MAX_BODY_BYTES, serve_forever
from repro.serve.jobs import QUEUED, RUNNING, JobJournal
from repro.serve.service import VerificationService
from tests.serve.conftest import EXAMPLE, SRC_DIR
from tests.serve.test_service import FILES, config_for


class TestEndpoints:
    @pytest.fixture
    def daemon(self, daemon_factory):
        return daemon_factory("--workers", "2")

    def test_healthz_and_readyz_come_up_green(self, daemon):
        status, health = daemon.get("/healthz")
        assert status == 200 and health["ok"] is True
        assert health["pid"] == daemon.proc.pid
        status, ready = daemon.get("/readyz")
        assert status == 200 and ready["ready"] is True
        assert ready["blockers"] == []

    def test_submit_poll_report(self, daemon, example_source):
        status, job, _headers = daemon.submit(
            {"greenhouse.py": example_source}, tenant="alice"
        )
        assert status == 202
        assert job["state"] == "queued"
        done = daemon.wait_job(job["id"])
        assert done["state"] == "done"
        assert done["ok"] is True
        assert done["classes"] == 4
        assert "vacuous-claim" in done["report"]

    def test_job_listing_and_404(self, daemon, example_source):
        status, listing = daemon.get("/v1/jobs")
        assert status == 200 and listing["jobs"] == []
        daemon.submit({"greenhouse.py": example_source})
        status, listing = daemon.get("/v1/jobs")
        assert status == 200 and len(listing["jobs"]) == 1
        status, body = daemon.get("/v1/jobs/nope")
        assert status == 404 and "no job" in body["error"]

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {"files": "not a dict"},
            {"tenant": "", "files": {"m.py": "x"}},
            {"tenant": "t", "files": {"../evil.py": "x"}},
        ],
    )
    def test_bad_submissions_get_400(self, daemon, payload):
        status, body = daemon.post("/v1/jobs", payload)
        assert status == 400
        assert "error" in body

    def test_oversized_body_gets_413_and_the_daemon_keeps_serving(self, daemon):
        """The cap is checked against Content-Length before any body is
        read, so the claim alone is refused."""
        host, port = daemon.base[len("http://"):].split(":")
        with socket.create_connection((host, int(port)), timeout=30) as client:
            client.sendall(
                "POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode("latin-1")
            )
            raw = b""
            while chunk := client.recv(65536):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split()[1] == b"413"
        assert json.loads(body) == {
            "error": f"body of {MAX_BODY_BYTES + 1} bytes exceeds the {MAX_BODY_BYTES} cap"
        }
        status, health = daemon.get("/healthz")
        assert status == 200 and health["ok"] is True
        status, listing = daemon.get("/v1/jobs")
        assert status == 200 and listing["jobs"] == []

    def test_method_and_route_errors(self, daemon):
        status, _body = daemon.post("/healthz")
        assert status == 405
        status, _body = daemon.get("/v2/nothing")
        assert status == 404

    def test_metrics_exposition(self, daemon, example_source):
        _status, job, _headers = daemon.submit({"greenhouse.py": example_source})
        daemon.wait_job(job["id"])
        status, text = daemon.get("/metrics")
        assert status == 200
        assert 'repro_serve_jobs_total{state="done"} 1' in text
        assert "repro_serve_queue_depth 0" in text
        assert 'repro_serve_breaker_state{state="closed"} 1' in text

    def test_event_stream_until_terminal(self, daemon, example_source):
        _status, job, _headers = daemon.submit({"greenhouse.py": example_source})
        with urllib.request.urlopen(
            daemon.base + f"/v1/jobs/{job['id']}/events", timeout=120
        ) as response:
            lines = [
                json.loads(line)
                for line in response.read().decode("utf-8").splitlines()
            ]
        states = [line["state"] for line in lines]
        assert states[-1] in ("done", "failed")
        assert states == sorted(set(states), key=states.index)  # no repeats


class TestOverloadOverHttp:
    def test_shed_submissions_get_429_with_retry_after(
        self, daemon_factory, example_source
    ):
        daemon = daemon_factory(
            "--queue-depth", "1",
            "--workers", "1",
            "--faults", "serve-dispatch:delay:*:arg=2",
        )
        statuses = []
        retry_after = None
        for index in range(4):
            status, body, headers = daemon.submit(
                {"m.py": example_source + f"\n# {index}\n"}, tenant=f"t{index}"
            )
            statuses.append(status)
            if status == 429:
                assert body["reason"] == "queue-full"
                retry_after = headers.get("Retry-After")
        assert statuses.count(202) >= 1
        assert statuses.count(429) >= 1
        assert retry_after is not None and int(retry_after) >= 1
        # Shedding is not an outage: liveness still answers.
        status, health = daemon.get("/healthz")
        assert status == 200 and health["ok"] is True


class TestDrain:
    def test_post_drain_flips_readiness_and_sheds(
        self, daemon_factory, example_source
    ):
        daemon = daemon_factory()
        status, body = daemon.post("/v1/drain")
        assert status == 202 and body["draining"] is True
        status, ready = daemon.get("/readyz")
        assert status == 503
        assert "draining" in ready["blockers"]
        status, text = daemon.get("/metrics")
        assert status == 200 and "repro_serve_draining 1" in text
        status, body, _headers = daemon.submit({"m.py": example_source})
        assert status == 503
        assert body["reason"] == "draining"
        rc, err = daemon.terminate()
        assert rc == 0

    def test_sigterm_finishes_inflight_work_before_exit(
        self, daemon_factory, example_source
    ):
        daemon = daemon_factory("--workers", "1")
        _status, job, _headers = daemon.submit({"greenhouse.py": example_source})
        rc, err = daemon.terminate()
        assert rc == 0
        assert "drain requested" in err
        assert "drained" in err
        # The drain let the in-flight job finish: its journal record is
        # terminal, so a restarted daemon serves the verdict directly.
        restarted = daemon_factory()
        status, record = restarted.get(f"/v1/jobs/{job['id']}")
        assert status == 200
        assert record["state"] == "done"
        assert record["report"]
        assert "recovered from the journal" in restarted.ready_line


def test_endpoint_file_records_the_listen_address(daemon_factory, tmp_path):
    daemon = daemon_factory(cache_dir=tmp_path / "cache")
    endpoint = json.loads(
        (tmp_path / "cache" / "serve" / "endpoint.json").read_text()
    )
    assert daemon.base.endswith(f":{endpoint['port']}")
    assert endpoint["pid"] == daemon.proc.pid


def test_a_start_refused_for_a_bound_port_leaves_the_journal_alone(tmp_path):
    """The listener binds before recovery, so a second daemon refused
    for a busy port never rewrites the journal of the one holding it."""
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        config = config_for(tmp_path, port=taken.getsockname()[1])

        async def scenario():
            VerificationService(config).submit("alice", FILES)
            with pytest.raises(ServeConfigError, match="cannot listen on"):
                await asyncio.wait_for(serve_forever(config), timeout=30)

        asyncio.run(scenario())
    [record] = JobJournal(config.serve_root).load_all()
    assert (record.state, record.recovered) == (QUEUED, 0)


def test_a_second_daemon_on_one_cache_directory_is_refused(
    daemon_factory, tmp_path, example_source
):
    """A daemon owns its serve/ directory: a second one on the same
    cache directory would re-enqueue and re-run the first one's jobs."""
    first = daemon_factory("--faults", "serve-dispatch:delay:*:arg=30")
    _status, job, _headers = first.submit({"greenhouse.py": example_source})
    deadline = time.monotonic() + 60
    while first.get(f"/v1/jobs/{job['id']}")[1]["state"] != RUNNING:
        assert time.monotonic() < deadline, "the job never started"
        time.sleep(0.05)
    second = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--cache-dir", str(tmp_path / "cache"),
        ],
        capture_output=True,
        text=True,
        timeout=30,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC_DIR},
    )
    assert second.returncode == 2
    assert second.stderr.startswith("error: another daemon owns")
    assert len(second.stderr.splitlines()) == 1
    [record] = JobJournal(tmp_path / "cache" / "serve").load_all()
    assert (record.id, record.state, record.recovered) == (job["id"], RUNNING, 0)


def test_bad_env_fault_spec_refuses_startup(tmp_path):
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--cache-dir", str(tmp_path / "cache"),
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": SRC_DIR,
            "REPRO_FAULTS": "nonsense:raise:*",
        },
    )
    assert completed.returncode != 0
    assert "unknown fault site" in completed.stderr
    assert "serve-dispatch" in completed.stderr  # lists the valid sites


# Keep EXAMPLE imported: the fixture in conftest reads it lazily, and a
# missing example file should fail loudly here, not mid-daemon.
assert EXAMPLE.is_file()
