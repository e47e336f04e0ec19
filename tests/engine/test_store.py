"""Crash-safe storage primitives (repro.engine.store) and their
integration with the cache's sealed envelopes (docs/robustness.md)."""

import json
import os

import pytest

from repro.engine import faults, store
from repro.engine.cache import CACHE_VERSION, InferenceCache, classify_entry


class TestSeal:
    def test_round_trip(self):
        envelope = store.seal({"cache_version": 2, "payload": {"x": 1}})
        assert store.CHECKSUM_KEY in envelope
        assert store.seal_intact(envelope)

    def test_seal_is_idempotent(self):
        first = store.seal({"a": 1})
        assert store.seal(first) == first

    def test_tampered_content_detected(self):
        envelope = store.seal({"payload": {"x": 1}})
        envelope["payload"]["x"] = 2
        assert not store.seal_intact(envelope)

    def test_tampered_checksum_detected(self):
        envelope = store.seal({"payload": {"x": 1}})
        envelope[store.CHECKSUM_KEY] = "0" * 64
        assert not store.seal_intact(envelope)

    @pytest.mark.parametrize("bad", [None, 42, "x", [], {"a": 1}])
    def test_non_envelopes_are_not_intact(self, bad):
        assert not store.seal_intact(bad)

    def test_canonical_bytes_ignore_key_order(self):
        assert store.canonical_bytes({"a": 1, "b": 2}) == store.canonical_bytes(
            {"b": 2, "a": 1}
        )

    def test_survives_json_round_trip(self):
        envelope = store.seal({"payload": {"nested": [1, 2, {"k": "v"}]}})
        assert store.seal_intact(json.loads(json.dumps(envelope)))


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "deep" / "file.json"
        store.atomic_write_text(target, "one")
        assert target.read_text(encoding="utf-8") == "one"
        store.atomic_write_text(target, "two")
        assert target.read_text(encoding="utf-8") == "two"

    def test_no_temp_file_left_on_success(self, tmp_path):
        store.atomic_write_text(tmp_path / "file.json", "payload")
        assert store.orphan_tmp_files(tmp_path) == []

    def test_torn_write_is_published_torn(self, tmp_path):
        """``torn`` tears the temp file *before* the rename — modeling
        the power cut that publishes wrong data blocks."""
        faults.install(faults.parse_faults("store-write:torn:key:arg=4"))
        target = tmp_path / "file.json"
        store.atomic_write_text(target, "0123456789", fault_key="key")
        assert target.read_text(encoding="utf-8") == "0123"

    def test_enospc_keeps_old_content_and_cleans_temp(self, tmp_path):
        target = tmp_path / "file.json"
        store.atomic_write_text(target, "old")
        faults.install(faults.parse_faults("store-write:enospc:key"))
        with pytest.raises(OSError):
            store.atomic_write_text(target, "new", fault_key="key")
        assert target.read_text(encoding="utf-8") == "old"
        assert store.orphan_tmp_files(tmp_path) == []

    def test_rename_failure_keeps_old_content(self, tmp_path):
        target = tmp_path / "file.json"
        store.atomic_write_text(target, "old")
        faults.install(faults.parse_faults("store-rename:rename-fail:key"))
        with pytest.raises(OSError):
            store.atomic_write_text(target, "new", fault_key="key")
        assert target.read_text(encoding="utf-8") == "old"
        assert store.orphan_tmp_files(tmp_path) == []

    def test_unkeyed_writes_are_exempt_from_faults(self, tmp_path):
        faults.install(faults.parse_faults("store-write:enospc:*"))
        store.atomic_write_text(tmp_path / "file.json", "ok")
        assert (tmp_path / "file.json").read_text(encoding="utf-8") == "ok"


class TestOrphanGC:
    def _plant_orphan(self, root, age_seconds, name="x"):
        orphan = root / f"{store.TMP_PREFIX}{name}.json"
        orphan.write_text("debris", encoding="utf-8")
        old = orphan.stat().st_mtime - age_seconds
        os.utime(orphan, (old, old))
        return orphan

    def test_lists_orphans_recursively_and_sorted(self, tmp_path):
        (tmp_path / "sub").mkdir()
        b = self._plant_orphan(tmp_path / "sub", 0, "b")
        a = self._plant_orphan(tmp_path, 0, "a")
        assert store.orphan_tmp_files(tmp_path) == sorted([a, b])

    def test_age_gate_spares_young_files(self, tmp_path):
        self._plant_orphan(tmp_path, age_seconds=0)
        assert store.gc_tmp_files(tmp_path, min_age_seconds=3600) == 0
        assert store.gc_tmp_files(tmp_path, min_age_seconds=0) == 1
        assert store.orphan_tmp_files(tmp_path) == []

    def test_old_files_are_swept(self, tmp_path):
        self._plant_orphan(tmp_path, age_seconds=7200)
        assert store.gc_tmp_files(tmp_path, min_age_seconds=3600) == 1

    def test_missing_root_is_empty(self, tmp_path):
        assert store.orphan_tmp_files(tmp_path / "nope") == []
        assert store.gc_tmp_files(tmp_path / "nope") == 0

    def test_opening_a_cache_leaves_old_orphans_to_gc(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("aa11", {"v": 1})
        self._plant_orphan(tmp_path / "class", age_seconds=7200)
        reopened = InferenceCache(tmp_path)
        assert reopened.stats.orphans_removed == 0
        assert reopened.orphan_count() == 1
        assert reopened.gc_tmp(min_age_seconds=3600) == 1
        assert reopened.stats.orphans_removed == 1
        assert reopened.orphan_count() == 0

    def test_cache_gc_tmp_sweeps_regardless_of_age(self, tmp_path):
        cache = InferenceCache(tmp_path)
        (tmp_path / "class").mkdir(exist_ok=True)
        self._plant_orphan(tmp_path / "class", age_seconds=0)
        assert cache.orphan_count() == 1
        assert cache.gc_tmp() == 1
        assert cache.stats.orphans_removed == 1


class TestSealedCacheEntries:
    """The cache's envelope-v2 read path (classify_entry) and the
    checksum-specific healing counters."""

    def _entry_path(self, tmp_path, cache, key="cafebabe"):
        return cache.backend.entry_path(key)

    def test_entries_on_disk_are_sealed(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("cafebabe", {"v": 1})
        envelope = json.loads(
            self._entry_path(tmp_path, cache).read_text(encoding="utf-8")
        )
        assert envelope["cache_version"] == CACHE_VERSION
        assert store.seal_intact(envelope)

    def test_classify_verdicts(self):
        sealed = json.dumps(
            store.seal({"cache_version": CACHE_VERSION, "payload": {"v": 1}})
        )
        assert classify_entry(sealed) == ("ok", {"v": 1})
        assert classify_entry("not json")[0] == "corrupt"
        assert classify_entry("[1, 2]")[0] == "corrupt"
        other_build = json.dumps(
            store.seal({"cache_version": CACHE_VERSION + 1, "payload": {}})
        )
        assert classify_entry(other_build)[0] == "version-skew"
        unsealed = json.dumps(
            {"cache_version": CACHE_VERSION, "payload": {"v": 1}}
        )
        assert classify_entry(unsealed)[0] == "checksum"

    def test_torn_but_valid_payload_is_healed_as_checksum_failure(
        self, tmp_path
    ):
        """The signature failure mode: valid JSON, wrong content."""
        cache = InferenceCache(tmp_path)
        cache.put("cafebabe", {"v": 1})
        path = self._entry_path(tmp_path, cache)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["payload"] = {"v": 2}  # tampered, still valid JSON
        path.write_text(json.dumps(envelope), encoding="utf-8")

        fresh = InferenceCache(tmp_path)
        assert fresh.get("cafebabe") is None
        assert fresh.stats.misses == 1
        assert fresh.stats.corrupt_entries == 1
        assert fresh.stats.checksum_failures == 1
        assert not path.exists()  # healed

    def test_structural_corruption_is_not_a_checksum_failure(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("cafebabe", {"v": 1})
        path = self._entry_path(tmp_path, cache)
        path.write_text("garbage", encoding="utf-8")
        fresh = InferenceCache(tmp_path)
        assert fresh.get("cafebabe") is None
        assert fresh.stats.corrupt_entries == 1
        assert fresh.stats.checksum_failures == 0

    def test_version_skew_left_in_place(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("cafebabe", {"v": 1})
        path = self._entry_path(tmp_path, cache)
        path.write_text(
            json.dumps(store.seal({"cache_version": 99, "payload": {"v": 1}})),
            encoding="utf-8",
        )
        fresh = InferenceCache(tmp_path)
        assert fresh.get("cafebabe") is None
        assert fresh.stats.corrupt_entries == 0
        assert path.exists()  # another build may still want it

    def test_write_failure_is_counted_and_memory_still_serves(self, tmp_path):
        faults.install(faults.parse_faults("store-write:enospc:class/*"))
        cache = InferenceCache(tmp_path)
        cache.put("cafebabe", {"v": 1})
        assert cache.stats.write_failures == 1
        assert cache.get("cafebabe") == {"v": 1}  # memory layer
        faults.install(None)
        assert InferenceCache(tmp_path).get("cafebabe") is None


class TestStoreObsEvents:
    """The structured events the persistence layer emits into an
    attached tracer (docs/observability.md)."""

    def _events(self, tracer, name):
        return [
            event
            for span in tracer.root.walk()
            for event in span.events
            if event["name"] == name
        ]

    def test_checksum_heal_emits_both_events(self, tmp_path):
        from repro.obs import Tracer

        cache = InferenceCache(tmp_path)
        cache.put("cafebabe", {"v": 1})
        path = cache.backend.entry_path("cafebabe")
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["payload"] = {"v": 2}
        path.write_text(json.dumps(envelope), encoding="utf-8")

        fresh = InferenceCache(tmp_path)
        fresh.tracer = tracer = Tracer()
        assert fresh.get("cafebabe") is None
        assert len(self._events(tracer, "checksum-fail")) == 1
        assert len(self._events(tracer, "cache-heal")) == 1

    def test_failed_state_save_emits_event_and_reports(self, tmp_path):
        from repro.engine.state import ProjectState, save_state
        from repro.obs import Tracer

        faults.install(faults.parse_faults("store-write:enospc:state"))
        tracer = Tracer()
        report = save_state(
            tmp_path / "state.json", ProjectState(), tracer=tracer
        )
        assert not report.ok
        assert not report.lock_timeout
        assert len(self._events(tracer, "state-save-failed")) == 1
        assert not (tmp_path / "state.json").exists()


class TestVerifyAudit:
    def test_clean_store_verifies_clean(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("aa11", {"v": 1})
        cache.put("bb22", {"v": 2})
        report = cache.verify()
        assert report == {
            "scanned": 2, "ok": 2, "version_skew": 0, "corrupt": 0, "repaired": 0,
        }

    def test_corrupt_entry_found_and_repaired(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("aa11", {"v": 1})
        path = cache.backend.entry_path("aa11")
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")

        audit = cache.verify()
        assert audit["corrupt"] == 1
        assert audit["repaired"] == 0
        assert path.exists()  # audit without repair never deletes

        repaired = cache.verify(repair=True)
        assert repaired["repaired"] == 1
        assert not path.exists()
        assert cache.verify() == {
            "scanned": 0, "ok": 0, "version_skew": 0,
            "corrupt": 0, "repaired": 0,
        }

    def test_version_skew_never_repaired(self, tmp_path):
        cache = InferenceCache(tmp_path)
        cache.put("aa11", {"v": 1})
        path = cache.backend.entry_path("aa11")
        path.write_text(
            json.dumps(store.seal({"cache_version": 99, "payload": {}})),
            encoding="utf-8",
        )
        audit = cache.verify(repair=True)
        assert audit["version_skew"] == 1
        assert audit["repaired"] == 0
        assert path.exists()

    def test_memory_only_cache_reports_zeros(self):
        report = InferenceCache(None).verify(repair=True)
        assert all(value == 0 for value in report.values())
