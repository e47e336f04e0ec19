"""Finished jobs past the retention bound retire: from memory, from the
journal and from the spool, with a 410 for their ids over HTTP.

The bound is lowered to 3 (and 2 for a restart) so a handful of jobs
overflow it; an in-process HTTP listener serves the service the test
drives, so the lowered bound applies to the routes too.
"""

import asyncio
import json

import pytest

from repro.engine import faults
from repro.serve import service as service_module
from repro.serve.http import ServeApp
from repro.serve.service import VerificationService
from tests.serve.test_service import FILES, SOURCE, config_for, wait_terminal


@pytest.fixture(autouse=True)
def clean_fault_plan():
    faults.install(None)
    yield
    faults.install(None)


async def http_get(port, path):
    """(status, parsed JSON body) of one GET against the listener."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode("latin-1"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


async def serving(service, scenario):
    """Run ``scenario(port)`` with ``service`` behind a live listener."""
    server = await asyncio.start_server(ServeApp(service).handle, "127.0.0.1", 0)
    try:
        return await scenario(server.sockets[0].getsockname()[1])
    finally:
        server.close()
        await server.wait_closed()


def held_on_disk(tmp_path):
    serve_root = tmp_path / "cache" / "serve"
    journal = sorted(path.stem for path in (serve_root / "jobs").glob("*.json"))
    spool = sorted(path.name for path in (serve_root / "spool").iterdir())
    return journal, spool


async def assert_gone(port, job_ids):
    for job_id in job_ids:
        for path in (f"/v1/jobs/{job_id}", f"/v1/jobs/{job_id}/events"):
            status, body = await http_get(port, path)
            assert status == 410, (path, body)
            assert body["reason"] == "retired"
            assert "retired" in body["error"]


def test_finished_jobs_past_the_bound_retire(tmp_path, monkeypatch):
    monkeypatch.setattr(service_module, "RETAINED_JOBS", 3)
    config = config_for(tmp_path, trace=True)

    async def first_life():
        service = VerificationService(config)
        await service.start()
        try:
            ids = []
            for round_ in range(5):
                job = service.submit("alice", {"module.py": f"{SOURCE}\n# {round_}\n"})
                assert (await wait_terminal(service, job.id)).state == "done"
                ids.append(job.id)
            retired, kept = ids[:2], ids[2:]
            assert sorted(service.jobs) == kept
            assert held_on_disk(tmp_path) == (kept, kept)
            # --trace keeps one span per held job, not one per job served.
            assert [span.name for span in service.tracer.root.children] == [
                f"job:{job_id}" for job_id in kept
            ]

            async def routes(port):
                await assert_gone(port, retired)
                status, body = await http_get(port, f"/v1/jobs/{kept[0]}")
                assert status == 200 and body["state"] == "done"
                for never_issued in ("j999999-0123456789", "nope"):
                    status, body = await http_get(port, f"/v1/jobs/{never_issued}")
                    assert status == 404 and "no job" in body["error"]

            await serving(service, routes)
            return retired, kept
        finally:
            await service.drain()

    retired, kept = asyncio.run(first_life())

    async def restarted(bound, expect_kept, expect_gone):
        monkeypatch.setattr(service_module, "RETAINED_JOBS", bound)
        service = VerificationService(config)
        assert service.recover() == 0
        assert sorted(service.jobs) == expect_kept
        assert held_on_disk(tmp_path) == (expect_kept, expect_kept)

        async def routes(port):
            await assert_gone(port, expect_gone)

        await serving(service, routes)

    # A restart loads the three held jobs and still answers 410 ...
    asyncio.run(restarted(3, kept, retired))
    # ... and applies a lower bound to what it loads.
    asyncio.run(restarted(2, kept[1:], retired + kept[:1]))


def test_running_and_just_finished_jobs_are_never_retired(tmp_path, monkeypatch):
    """With room for one finished job, a newer job that finishes while an
    older one runs is held and the running job is left alone; when the
    older job finishes, it stays and the newer one retires."""
    monkeypatch.setattr(service_module, "RETAINED_JOBS", 1)
    faults.install(faults.parse_faults("serve-dispatch:delay:*:arg=1.5:times=1"))

    async def scenario():
        service = VerificationService(config_for(tmp_path, workers=2))
        await service.start()
        try:
            slow = service.submit("alice", FILES)  # takes the delay
            await asyncio.sleep(0.1)
            quick = service.submit("bob", {"module.py": f"{SOURCE}\n# quick\n"})
            await wait_terminal(service, quick.id)
            assert service.jobs[slow.id].state == "running"
            await wait_terminal(service, slow.id)
            # The slow job just finished: it stays, the quick one retires.
            assert list(service.jobs) == [slow.id]
            assert service.retired(quick.id)
            assert not service.retired(slow.id)
        finally:
            await service.drain()

    asyncio.run(scenario())
