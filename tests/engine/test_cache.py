"""The content-addressed cache: persistence, tolerance, stats."""

import json
import sys
import threading

from repro.engine import cache as cache_module
from repro.engine.cache import CACHE_VERSION, InferenceCache


class TestMemoryCache:
    def test_roundtrip(self):
        cache = InferenceCache(None)
        assert cache.get("k1") is None
        cache.put("k1", {"diagnostics": []})
        assert cache.get("k1") == {"diagnostics": []}

    def test_stats_count_hits_misses_writes(self):
        cache = InferenceCache(None)
        cache.get("absent")
        cache.put("present", {"x": 1})
        cache.get("present")
        cache.get("present")
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2
        assert cache.stats.writes == 1


class TestMemoryTierBound:
    def test_least_recently_used_leaves_first(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_TIER_SIZE", 2)
        cache = InferenceCache(None)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refreshes "a"; "b" is now oldest
        cache.put("c", {"v": 3})
        assert cache.disk_stats()["entries"] == 2
        # Memory-only, the tier is the whole store: an evicted key misses.
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}

    def test_threads_share_the_tier_without_losing_updates(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_TIER_SIZE", 16)
        cache = InferenceCache(None)
        rounds, workers = 2000, 8
        errors = []

        def hammer(worker):
            try:
                for index in range(rounds):
                    key = f"k{(worker * 7 + index) % 40}"
                    if cache.get(key) is None:
                        cache.put(key, {"v": index})
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(worker,))
                for worker in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.stats.hits + cache.stats.misses == rounds * workers
        assert cache.stats.writes == cache.stats.misses
        assert len(cache._memory) <= 16

    def test_an_evicted_key_is_read_back_from_disk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_TIER_SIZE", 1)
        cache = InferenceCache(tmp_path)
        cache.put("aa11", {"v": 1})
        cache.put("bb22", {"v": 2})
        assert cache.get("aa11") == {"v": 1}  # from disk, back into memory
        assert cache.stats.hits == 1
        assert list(cache._memory) == ["aa11"]


class TestDiskCache:
    def test_persists_across_instances(self, tmp_path):
        InferenceCache(tmp_path).put("deadbeef", {"verdict": "ok"})
        fresh = InferenceCache(tmp_path)
        assert fresh.get("deadbeef") == {"verdict": "ok"}
        assert fresh.stats.hits == 1

    def test_layout_is_sharded_with_cachedir_tag(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("abcdef", {"v": 1})
        assert (tmp_path / "CACHEDIR.TAG").read_text().startswith("Signature:")
        assert (tmp_path / "class" / "ab" / "abcdef.json").is_file()
        assert cache.disk_stats()["entries"] == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("abcdef", {"v": 1})
        (tmp_path / "class" / "ab" / "abcdef.json").write_text("{ truncated")
        assert InferenceCache(tmp_path).get("abcdef") is None

    def test_corrupt_entry_is_deleted_and_counted(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("abcdef", {"v": 1})
        path = tmp_path / "class" / "ab" / "abcdef.json"
        path.write_text("{ truncated")
        fresh = InferenceCache(tmp_path)
        assert fresh.get("abcdef") is None
        assert not path.exists()  # self-healed: the bad file is gone
        assert fresh.stats.corrupt_entries == 1
        # The next write/read cycle works again.
        fresh.put("abcdef", {"v": 2})
        assert InferenceCache(tmp_path).get("abcdef") == {"v": 2}

    def test_version_mismatch_is_not_treated_as_corruption(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("abcdef", {"v": 1})
        path = tmp_path / "class" / "ab" / "abcdef.json"
        envelope = json.loads(path.read_text())
        envelope["cache_version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(envelope))
        fresh = InferenceCache(tmp_path)
        assert fresh.get("abcdef") is None
        assert path.exists()  # a future version's entry is left alone
        assert fresh.stats.corrupt_entries == 0

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("abcdef", {"v": 1})
        path = tmp_path / "class" / "ab" / "abcdef.json"
        envelope = json.loads(path.read_text())
        envelope["cache_version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(envelope))
        assert InferenceCache(tmp_path).get("abcdef") is None

    def test_non_dict_payload_is_a_miss(self, tmp_path):
        cache = InferenceCache(tmp_path)
        path = tmp_path / "class" / "ab" / "abcdef.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"cache_version": CACHE_VERSION, "payload": [1]}))
        assert cache.get("abcdef") is None

    def test_memory_layer_serves_repeat_lookups(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("abcdef", {"v": 1})
        # Delete the file; the same instance still answers from memory.
        (tmp_path / "class" / "ab" / "abcdef.json").unlink()
        assert cache.get("abcdef") == {"v": 1}


class TestMaintenance:
    def test_disk_stats_report_entries_and_bytes(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("aa11", {"v": 1})
        cache.put("bb22", {"v": 2})
        cache.put("cc33", {"v": 3})
        stats = cache.disk_stats()
        assert stats == {"entries": 3, "bytes": stats["bytes"]}
        assert stats["bytes"] > 0

    def test_disk_stats_for_memory_only_cache(self):
        assert InferenceCache(None).disk_stats() == {"entries": 0, "bytes": 0}

    def test_clear_empties_disk_and_memory(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("aa11", {"v": 1})
        cache.put("cc33", {"v": 3})
        assert cache.clear() == 2
        assert cache.disk_stats()["entries"] == 0
        assert cache.get("aa11") is None
        assert (tmp_path / "CACHEDIR.TAG").exists()  # the tag survives
        # The cleared cache is still usable.
        cache.put("aa11", {"v": 1})
        assert InferenceCache(tmp_path).get("aa11") == {"v": 1}


class TestCachedirTag:
    def test_tag_write_is_atomic_and_failure_tolerant(self, tmp_path):
        # Regression: the tag used to be a bare write_text — a torn or
        # failed write could publish half a tag.  It now goes through
        # store.atomic_write_text (fault key "cachedir-tag"): a full
        # disk leaves no tag, no temp debris, and a working cache.
        from repro.engine import faults
        from repro.engine.faults import parse_faults

        faults.install(parse_faults("store-write:enospc:cachedir-tag"))
        try:
            cache = InferenceCache(tmp_path)
        finally:
            faults.install(None)
        assert not (tmp_path / "CACHEDIR.TAG").exists()
        assert cache.orphan_count() == 0
        cache.put("abcdef", {"v": 1})
        # A later construction (disk recovered) writes the tag whole.
        fresh = InferenceCache(tmp_path)
        assert fresh.get("abcdef") == {"v": 1}
        tag = tmp_path / "CACHEDIR.TAG"
        assert tag.read_text(encoding="utf-8").startswith("Signature:")


class TestCounterContract:
    """One healed read counts exactly once as a miss and once as
    corrupt — never more, even across retries that keep re-reading a
    corrupt file the heal could not delete (docs/observability.md)."""

    def _plant_garbage(self, tmp_path, key="cafebabe"):
        cache = InferenceCache(tmp_path)
        path = cache.backend.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ truncated", encoding="utf-8")
        return cache, path

    def test_healed_read_is_one_miss_and_one_corrupt(self, tmp_path):
        cache, path = self._plant_garbage(tmp_path)
        assert cache.get("cafebabe") is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt_entries == 1
        assert not path.exists()

    def test_non_utf8_entry_heals_as_one_miss_and_one_corrupt(self, tmp_path):
        cache, path = self._plant_garbage(tmp_path)
        path.write_bytes(b"\xff\xfe{")
        assert cache.get("cafebabe") is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt_entries == 1
        assert not path.exists()

    def test_failed_unlink_never_double_counts(self, tmp_path, monkeypatch):
        cache, path = self._plant_garbage(tmp_path)

        def deny_unlink(self_path, missing_ok=False):
            raise OSError("read-only directory")

        monkeypatch.setattr(type(path), "unlink", deny_unlink)
        # The corrupt file survives every heal attempt; each read is a
        # genuine miss, but the single corruption counts once.
        assert cache.get("cafebabe") is None
        assert cache.get("cafebabe") is None
        assert path.exists()
        assert cache.stats.misses == 2
        assert cache.stats.corrupt_entries == 1

    def test_put_rearms_counting_for_a_new_corruption(self, tmp_path, monkeypatch):
        cache, path = self._plant_garbage(tmp_path)

        def deny_unlink(self_path, missing_ok=False):
            raise OSError("read-only directory")

        monkeypatch.setattr(type(path), "unlink", deny_unlink)
        assert cache.get("cafebabe") is None
        assert cache.stats.corrupt_entries == 1
        monkeypatch.undo()

        cache.put("cafebabe", {"verdict": "ok"})
        # A *new* corruption of the rewritten entry counts again.
        path.write_text("garbage", encoding="utf-8")
        cache._memory.clear()  # force the next read back to disk
        assert cache.get("cafebabe") is None
        assert cache.stats.corrupt_entries == 2

    def test_corrupt_fault_profile_heals_exactly_once(self, tmp_path):
        from repro.engine import faults
        from repro.engine.faults import parse_faults

        faults.install(parse_faults("cache-put:corrupt:class/*"))
        writer = InferenceCache(tmp_path)
        writer.put("deadbeef", {"verdict": "ok"})
        faults.install(None)

        reader = InferenceCache(tmp_path)
        assert reader.get("deadbeef") is None
        assert reader.get("deadbeef") is None  # healed: plain miss
        assert reader.stats.misses == 2
        assert reader.stats.corrupt_entries == 1

    def test_cache_events_reach_the_tracer(self, tmp_path):
        from repro.obs import Tracer

        cache = InferenceCache(tmp_path)
        tracer = Tracer()
        cache.tracer = tracer
        with tracer.span("wave", "wave-0"):
            cache.get("absent")
            cache.put("absent", {"verdict": "ok"})
            cache.get("absent")
        assert tracer.counters == {
            "event.cache-miss": 1,
            "event.cache-write": 1,
            "event.cache-hit": 1,
        }


class TestUnlockedWriters:
    """Cache writes take no lock: content addressing, the atomic rename
    and the seal are what keep racing writers safe."""

    def test_racing_threads_leave_whole_entries(self, tmp_path):
        import os
        import sys
        import threading

        threads = 2 * (os.cpu_count() or 1) + 2  # more threads than cores
        keys_per_thread = 12

        def payload(key):
            return {"class": key, "diagnostics": [key * 40] * 20}

        shared = "5a" * 32
        cache = InferenceCache(tmp_path)
        barrier = threading.Barrier(threads)
        errors = []

        def writer(index):
            try:
                barrier.wait(timeout=30)
                for step in range(keys_per_thread):
                    cache.put(shared, payload(shared))
                    key = f"{index:02x}{step:02x}" + "c" * 60
                    cache.put(key, payload(key))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the writers as finely as possible
        try:
            workers = [
                threading.Thread(target=writer, args=(index,))
                for index in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert cache.stats.write_failures == 0

        fresh = InferenceCache(tmp_path)  # reads from disk, not memory
        keys = [shared] + [
            f"{index:02x}{step:02x}" + "c" * 60
            for index in range(threads)
            for step in range(keys_per_thread)
        ]
        for key in keys:
            assert fresh.get(key) == payload(key)
        audit = fresh.verify()
        assert audit["corrupt"] == 0
        assert audit["ok"] == len(keys)
        assert fresh.orphan_count() == 0
