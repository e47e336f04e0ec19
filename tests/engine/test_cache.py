"""The content-addressed cache: persistence, tolerance, stats."""

import json

import pytest

from repro.engine.cache import CACHE_VERSION, CacheStats, InferenceCache


class TestMemoryCache:
    def test_roundtrip(self):
        cache = InferenceCache(None)
        assert cache.get("method", "k1") is None
        cache.put("method", "k1", {"ongoing": "a . b"})
        assert cache.get("method", "k1") == {"ongoing": "a . b"}

    def test_namespaces_are_disjoint(self):
        cache = InferenceCache(None)
        cache.put("method", "k", {"kind": "method"})
        assert cache.get("class", "k") is None
        cache.put("class", "k", {"kind": "class"})
        assert cache.get("method", "k") == {"kind": "method"}
        assert cache.get("class", "k") == {"kind": "class"}

    def test_unknown_namespace_rejected(self):
        cache = InferenceCache(None)
        with pytest.raises(ValueError):
            cache.get("regex", "k")
        with pytest.raises(ValueError):
            cache.put("regex", "k", {})

    def test_stats_count_hits_misses_writes(self):
        cache = InferenceCache(None)
        cache.get("method", "absent")
        cache.put("method", "present", {"x": 1})
        cache.get("method", "present")
        cache.get("method", "present")
        assert cache.stats.misses["method"] == 1
        assert cache.stats.hits["method"] == 2
        assert cache.stats.writes["method"] == 1
        assert cache.stats.hit_rate("method") == pytest.approx(2 / 3)
        assert cache.stats.hit_rate("class") == 0.0


class TestDiskCache:
    def test_persists_across_instances(self, tmp_path):
        InferenceCache(tmp_path).put("class", "deadbeef", {"verdict": "ok"})
        fresh = InferenceCache(tmp_path)
        assert fresh.get("class", "deadbeef") == {"verdict": "ok"}
        assert fresh.stats.hits["class"] == 1

    def test_layout_is_sharded_with_cachedir_tag(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("method", "abcdef", {"v": 1})
        assert (tmp_path / "CACHEDIR.TAG").read_text().startswith("Signature:")
        assert (tmp_path / "method" / "ab" / "abcdef.json").is_file()
        assert cache.entry_count() == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("method", "abcdef", {"v": 1})
        (tmp_path / "method" / "ab" / "abcdef.json").write_text("{ truncated")
        assert InferenceCache(tmp_path).get("method", "abcdef") is None

    def test_corrupt_entry_is_deleted_and_counted(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("method", "abcdef", {"v": 1})
        path = tmp_path / "method" / "ab" / "abcdef.json"
        path.write_text("{ truncated")
        fresh = InferenceCache(tmp_path)
        assert fresh.get("method", "abcdef") is None
        assert not path.exists()  # self-healed: the bad file is gone
        assert fresh.stats.corrupt["method"] == 1
        assert fresh.stats.corrupt_entries == 1
        # The next write/read cycle works again.
        fresh.put("method", "abcdef", {"v": 2})
        assert InferenceCache(tmp_path).get("method", "abcdef") == {"v": 2}

    def test_version_mismatch_is_not_treated_as_corruption(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("method", "abcdef", {"v": 1})
        path = tmp_path / "method" / "ab" / "abcdef.json"
        envelope = json.loads(path.read_text())
        envelope["cache_version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(envelope))
        fresh = InferenceCache(tmp_path)
        assert fresh.get("method", "abcdef") is None
        assert path.exists()  # a future version's entry is left alone
        assert fresh.stats.corrupt_entries == 0

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("method", "abcdef", {"v": 1})
        path = tmp_path / "method" / "ab" / "abcdef.json"
        envelope = json.loads(path.read_text())
        envelope["cache_version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(envelope))
        assert InferenceCache(tmp_path).get("method", "abcdef") is None

    def test_non_dict_payload_is_a_miss(self, tmp_path):
        cache = InferenceCache(tmp_path)
        path = tmp_path / "method" / "ab" / "abcdef.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"cache_version": CACHE_VERSION, "payload": [1]}))
        assert cache.get("method", "abcdef") is None

    def test_memory_layer_serves_repeat_lookups(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("method", "abcdef", {"v": 1})
        # Delete the file; the same instance still answers from memory.
        (tmp_path / "method" / "ab" / "abcdef.json").unlink()
        assert cache.get("method", "abcdef") == {"v": 1}


class TestMaintenance:
    def test_disk_stats_report_entries_and_bytes(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("method", "aa11", {"v": 1})
        cache.put("method", "bb22", {"v": 2})
        cache.put("class", "cc33", {"v": 3})
        stats = cache.disk_stats()
        assert stats["method"]["entries"] == 2
        assert stats["class"]["entries"] == 1
        assert stats["method"]["bytes"] > 0

    def test_disk_stats_for_memory_only_cache(self):
        stats = InferenceCache(None).disk_stats()
        assert all(ns["entries"] == 0 for ns in stats.values())

    def test_clear_empties_disk_and_memory(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("method", "aa11", {"v": 1})
        cache.put("class", "cc33", {"v": 3})
        assert cache.clear() == 2
        assert cache.entry_count() == 0
        assert cache.get("method", "aa11") is None
        assert (tmp_path / "CACHEDIR.TAG").exists()  # the tag survives
        # The cleared cache is still usable.
        cache.put("method", "aa11", {"v": 1})
        assert InferenceCache(tmp_path).get("method", "aa11") == {"v": 1}


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
        cache.put("method", "abcdef", {"v": 1})
        # A later construction (disk recovered) writes the tag whole.
        fresh = InferenceCache(tmp_path)
        assert fresh.get("method", "abcdef") == {"v": 1}
        tag = tmp_path / "CACHEDIR.TAG"
        assert tag.read_text(encoding="utf-8").startswith("Signature:")


class TestCacheStats:
    def test_dynamic_namespaces_never_keyerror(self):
        # Regression: the per-namespace dicts were pre-seeded with the
        # fixed built-in set, so any later namespace raised KeyError in
        # hit_rate()/counter updates.
        stats = CacheStats()
        assert stats.hit_rate("regex") == 0.0
        stats.bump("hits", "regex")
        stats.bump("misses", "regex")
        stats.bump("writes", "regex", 2)
        assert stats.hit_rate("regex") == pytest.approx(0.5)
        assert stats.writes["regex"] == 2
        # The built-in namespaces are still pre-seeded as zeros.
        assert stats.hits["method"] == 0


class TestDynamicNamespaces:
    def test_unregistered_namespace_still_rejected(self, tmp_path):
        cache = InferenceCache(tmp_path)
        with pytest.raises(ValueError):
            cache.get("regex", "k")


class TestCounterContract:
    """One healed read counts exactly once as a miss and once as
    corrupt — never more, even across retries that keep re-reading a
    corrupt file the heal could not delete (docs/observability.md)."""

    def _plant_garbage(self, tmp_path, namespace="class", key="cafebabe"):
        cache = InferenceCache(tmp_path)
        path = cache._path(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ truncated", encoding="utf-8")
        return cache, path

    def test_healed_read_is_one_miss_and_one_corrupt(self, tmp_path):
        cache, path = self._plant_garbage(tmp_path)
        assert cache.get("class", "cafebabe") is None
        assert cache.stats.misses["class"] == 1
        assert cache.stats.corrupt["class"] == 1
        assert not path.exists()

    def test_failed_unlink_never_double_counts(self, tmp_path, monkeypatch):
        cache, path = self._plant_garbage(tmp_path)

        def deny_unlink(self_path, missing_ok=False):
            raise OSError("read-only directory")

        monkeypatch.setattr(type(path), "unlink", deny_unlink)
        # The corrupt file survives every heal attempt; each read is a
        # genuine miss, but the single corruption counts once.
        assert cache.get("class", "cafebabe") is None
        assert cache.get("class", "cafebabe") is None
        assert path.exists()
        assert cache.stats.misses["class"] == 2
        assert cache.stats.corrupt["class"] == 1

    def test_put_rearms_counting_for_a_new_corruption(self, tmp_path, monkeypatch):
        cache, path = self._plant_garbage(tmp_path)

        def deny_unlink(self_path, missing_ok=False):
            raise OSError("read-only directory")

        monkeypatch.setattr(type(path), "unlink", deny_unlink)
        assert cache.get("class", "cafebabe") is None
        assert cache.stats.corrupt["class"] == 1
        monkeypatch.undo()

        cache.put("class", "cafebabe", {"verdict": "ok"})
        # A *new* corruption of the rewritten entry counts again.
        path.write_text("garbage", encoding="utf-8")
        cache._memory.clear()  # force the next read back to disk
        assert cache.get("class", "cafebabe") is None
        assert cache.stats.corrupt["class"] == 2

    def test_corrupt_fault_profile_heals_exactly_once(self, tmp_path):
        from repro.engine import faults
        from repro.engine.faults import parse_faults

        faults.install(parse_faults("cache-put:corrupt:class/*"))
        writer = InferenceCache(tmp_path)
        writer.put("class", "deadbeef", {"verdict": "ok"})
        faults.install(None)

        reader = InferenceCache(tmp_path)
        assert reader.get("class", "deadbeef") is None
        assert reader.get("class", "deadbeef") is None  # healed: plain miss
        assert reader.stats.misses["class"] == 2
        assert reader.stats.corrupt["class"] == 1

    def test_cache_events_reach_the_tracer(self, tmp_path):
        from repro.obs import Tracer

        cache = InferenceCache(tmp_path)
        tracer = Tracer()
        cache.tracer = tracer
        with tracer.span("wave", "wave-0"):
            cache.get("class", "absent")
            cache.put("class", "absent", {"verdict": "ok"})
            cache.get("class", "absent")
        assert tracer.counters == {
            "event.cache-miss": 1,
            "event.cache-write": 1,
            "event.cache-hit": 1,
        }
