"""Backend conformance: every transport obeys the same cache contract.

One parametrized suite drives :class:`InferenceCache` over all three
backends — the local sealed-store directory, the HTTP remote (against
an in-process ``repro cache serve`` daemon), and the tiered
composition — plus targeted tests for the behaviors only one backend
can exhibit: write-behind replication, remote-down degradation, and
the server's envelope validation.
"""

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.engine import faults, store
from repro.engine.backends import (
    LocalDirBackend,
    RemoteHTTPBackend,
    RemoteUnavailable,
    TieredBackend,
)
from repro.engine.backends.server import run_cache_server
from repro.engine.cache import CACHE_VERSION, InferenceCache

PAYLOAD = {"verdict": "clean", "diagnostics": []}
KEY = "deadbeefcafef00d"


def sealed_text(payload=PAYLOAD) -> str:
    envelope = store.seal({"cache_version": CACHE_VERSION, "payload": payload})
    return json.dumps(envelope, sort_keys=True)


@pytest.fixture()
def cache_server(tmp_path):
    server = run_cache_server(tmp_path / "served")
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture(params=["local", "remote", "tiered"])
def backend(request, tmp_path, cache_server):
    if request.param == "local":
        yield LocalDirBackend(tmp_path / "local")
    elif request.param == "remote":
        yield RemoteHTTPBackend(cache_server.endpoint)
    else:
        tiered = TieredBackend(
            LocalDirBackend(tmp_path / "local"),
            RemoteHTTPBackend(cache_server.endpoint),
        )
        yield tiered
        tiered.close()


def corrupt_stored_entry(backend, cache_server, key):
    """Flip bytes of the stored entry, wherever this backend keeps it."""
    roots = []
    if backend.local_root is not None:
        roots.append(backend.local_root)
    roots.append(cache_server.backend.local_root)
    found = False
    for root in roots:
        path = root / "class" / key[:2] / f"{key}.json"
        if path.exists():
            # Invalid JSON: unambiguously corrupt (an envelope with a
            # missing version field would read as version skew instead).
            path.write_text("} definitely not json", encoding="utf-8")
            found = True
    assert found, "no stored entry to corrupt"


class TestConformance:
    def test_round_trip(self, backend):
        cache = InferenceCache(backend=backend)
        assert cache.get(KEY) is None
        cache.put(KEY, PAYLOAD)
        cache.flush()
        # A fresh cache over the same transport must see the entry
        # (no in-memory short-circuit).
        fresh = InferenceCache(backend=backend)
        assert fresh.get(KEY) == PAYLOAD
        assert fresh.stats.hits == 1

    def test_seal_mismatch_heals(self, backend, cache_server):
        cache = InferenceCache(backend=backend)
        cache.put(KEY, PAYLOAD)
        cache.flush()
        corrupt_stored_entry(backend, cache_server, KEY)
        fresh = InferenceCache(backend=backend)
        assert fresh.get(KEY) is None
        assert fresh.stats.corrupt_entries == 1
        # The corrupt entry was deleted: the next fresh read is a plain
        # miss, not another heal.
        again = InferenceCache(backend=backend)
        assert again.get(KEY) is None
        assert again.stats.corrupt_entries == 0

    def test_delete_then_miss(self, backend):
        cache = InferenceCache(backend=backend)
        cache.put(KEY, PAYLOAD)
        cache.flush()
        assert backend.delete(KEY) is True
        fresh = InferenceCache(backend=backend)
        if isinstance(backend, TieredBackend):
            # Tiered deletes drop the *local* copy only — by design, so
            # a healed entry re-promotes from the intact remote copy.
            assert fresh.get(KEY) == PAYLOAD
        else:
            assert backend.delete(KEY) is False
            assert fresh.get(KEY) is None

    def test_concurrent_writers_converge(self, backend):
        cache = InferenceCache(backend=backend)
        errors = []

        def writer(index):
            try:
                for step in range(5):
                    cache.put(f"{KEY}{index:02d}{step:02d}", PAYLOAD)
            except Exception as err:  # pragma: no cover - failure path
                errors.append(err)

        threads = [
            threading.Thread(target=writer, args=(index,)) for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cache.flush()
        assert errors == []
        fresh = InferenceCache(backend=backend)
        for index in range(4):
            for step in range(5):
                assert fresh.get(f"{KEY}{index:02d}{step:02d}") == PAYLOAD


class TestTiered:
    def test_write_behind_reaches_remote_after_flush(self, tmp_path, cache_server):
        tiered = TieredBackend(
            LocalDirBackend(tmp_path / "local"),
            RemoteHTTPBackend(cache_server.endpoint),
        )
        cache = InferenceCache(backend=tiered)
        cache.put(KEY, PAYLOAD)
        cache.flush()
        remote_only = InferenceCache(
            backend=RemoteHTTPBackend(cache_server.endpoint)
        )
        assert remote_only.get(KEY) == PAYLOAD
        cache.close()

    def test_remote_hit_promotes_to_local(self, tmp_path, cache_server):
        seeder = InferenceCache(
            backend=RemoteHTTPBackend(cache_server.endpoint)
        )
        seeder.put(KEY, PAYLOAD)
        tiered = TieredBackend(
            LocalDirBackend(tmp_path / "local"),
            RemoteHTTPBackend(cache_server.endpoint),
        )
        cache = InferenceCache(backend=tiered)
        assert cache.get(KEY) == PAYLOAD
        assert cache.stats.remote_hits == 1
        # Promotion happened: the local tree alone now serves the key.
        local_only = InferenceCache(backend=LocalDirBackend(tmp_path / "local"))
        assert local_only.get(KEY) == PAYLOAD
        cache.close()

    def test_remote_down_degrades_to_local_only(self, tmp_path):
        tiered = TieredBackend(
            LocalDirBackend(tmp_path / "local"),
            # Nothing listens here: every request is connection-refused.
            RemoteHTTPBackend("http://127.0.0.1:9", timeout=0.2),
        )
        cache = InferenceCache(backend=tiered)
        for index in range(4):
            assert cache.get(f"{KEY}{index:02d}") is None
        assert tiered.degraded
        assert cache.stats.remote_errors >= 2
        assert cache.stats.remote_degraded == 1
        # Local service continues unharmed.
        cache.put(KEY, PAYLOAD)
        fresh = InferenceCache(backend=LocalDirBackend(tmp_path / "local"))
        assert fresh.get(KEY) == PAYLOAD
        cache.close()

    def test_injected_remote_faults_degrade(self, tmp_path, cache_server):
        plan = faults.parse_faults("remote-get:raise:*;remote-put:raise:*")
        faults.install(plan)
        try:
            tiered = TieredBackend(
                LocalDirBackend(tmp_path / "local"),
                RemoteHTTPBackend(cache_server.endpoint),
            )
            cache = InferenceCache(backend=tiered)
            cache.put(KEY, PAYLOAD)
            assert cache.get(KEY) == PAYLOAD  # local tier serves
            for index in range(4):
                cache.get(f"{KEY}{index:02d}")
            assert tiered.degraded
            assert cache.stats.remote_errors >= 3
            cache.close()
        finally:
            faults.install(None)
        # Nothing ever reached the remote.
        assert cache_server.counters["puts"] == 0


class TestRemoteBackendErrors:
    def test_connection_refused_is_remote_unavailable(self):
        backend = RemoteHTTPBackend("http://127.0.0.1:9", timeout=0.2)
        with pytest.raises(RemoteUnavailable):
            backend.get_text(KEY)
        with pytest.raises(RemoteUnavailable):
            backend.put_text(KEY, sealed_text())

    def test_remote_unavailable_is_plain_miss_for_cache(self):
        cache = InferenceCache(
            backend=RemoteHTTPBackend("http://127.0.0.1:9", timeout=0.2)
        )
        assert cache.get(KEY) is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt_entries == 0
        assert cache.stats.remote_errors == 1


class TestCacheServer:
    def put(self, server, path, body):
        request = urllib.request.Request(
            f"{server.endpoint}{path}",
            data=body.encode("utf-8"),
            method="PUT",
            headers={"Content-Type": "application/json"},
        )
        return urllib.request.urlopen(request, timeout=5.0)

    def test_healthz(self, cache_server):
        with urllib.request.urlopen(
            f"{cache_server.endpoint}/healthz", timeout=5.0
        ) as response:
            assert json.loads(response.read()) == {"ok": True}

    def test_rejects_unsealed_bodies(self, cache_server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.put(cache_server, f"/v1/cache/class/{KEY}", '{"raw": 1}')
        assert excinfo.value.code == 400
        excinfo.value.close()
        assert cache_server.counters["rejected"] == 1

    def test_rejects_traversal_routes(self, cache_server):
        for path in (
            "/v1/cache/class/../../../etc/passwd",
            "/v1/cache/UPPER/abc123",
            "/v1/cache/class/notahexkey!",
            "/v1/other/class/abc123",
        ):
            request = urllib.request.Request(
                f"{cache_server.endpoint}{path}", method="GET"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5.0)
            assert excinfo.value.code == 404
            excinfo.value.close()

    def test_get_put_round_trip_and_stats(self, cache_server):
        text = sealed_text()
        with self.put(cache_server, f"/v1/cache/class/{KEY}", text):
            pass
        with urllib.request.urlopen(
            f"{cache_server.endpoint}/v1/cache/class/{KEY}", timeout=5.0
        ) as response:
            assert response.read().decode("utf-8") == text
        with urllib.request.urlopen(
            f"{cache_server.endpoint}/stats", timeout=5.0
        ) as response:
            stats = json.loads(response.read())
        assert stats["counters"]["puts"] == 1
        assert stats["counters"]["hits"] == 1

    def test_only_the_class_route_stores_entries(self, cache_server):
        text = sealed_text()
        with self.put(cache_server, f"/v1/cache/class/{KEY}", text):
            pass
        with urllib.request.urlopen(
            f"{cache_server.endpoint}/v1/cache/class/{KEY}", timeout=5.0
        ) as response:
            assert response.read().decode("utf-8") == text
        # Every entry is a class verdict: any other name in the route is
        # an unknown route, and nothing is written for it.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.put(cache_server, f"/v1/cache/method/{KEY}", text)
        assert excinfo.value.code == 404
        excinfo.value.close()
        root = cache_server.backend.local_root
        assert [path.relative_to(root) for path in root.rglob("*.json")] == [
            Path("class", KEY[:2], f"{KEY}.json")
        ]
        assert cache_server.counters["puts"] == 1

    def test_non_utf8_entry_is_a_miss(self, cache_server):
        # Healed as a client heals a read: one miss, one corrupt entry,
        # and the unreadable file is gone from the shared tier.
        path = cache_server.backend.local_root / "class" / KEY[:2] / f"{KEY}.json"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{cache_server.endpoint}/v1/cache/class/{KEY}", timeout=5.0
            )
        assert excinfo.value.code == 404
        excinfo.value.close()
        with urllib.request.urlopen(
            f"{cache_server.endpoint}/stats", timeout=5.0
        ) as response:
            counters = json.loads(response.read())["counters"]
        assert (counters["misses"], counters["corrupt"]) == (1, 1)
        assert not path.exists()
