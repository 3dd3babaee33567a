"""Backend contract tests: LRU budget semantics and disk durability."""

from repro.store import DiskBackend, MemoryBackend, default_cache_dir


class TestMemoryBackend:
    def test_round_trip(self):
        backend = MemoryBackend()
        backend.put("k1", "json", b"payload", kind="test")
        assert backend.get("k1") == ("json", b"payload")
        assert backend.get("absent") is None

    def test_lru_eviction_respects_byte_budget(self):
        backend = MemoryBackend(max_bytes=10)
        backend.put("a", "json", b"aaaa")
        backend.put("b", "json", b"bbbb")
        backend.put("c", "json", b"cccc")  # 12 bytes total: evict "a"
        assert backend.get("a") is None
        assert backend.get("b") is not None
        assert backend.get("c") is not None

    def test_get_refreshes_recency(self):
        backend = MemoryBackend(max_bytes=10)
        backend.put("a", "json", b"aaaa")
        backend.put("b", "json", b"bbbb")
        backend.get("a")  # "b" is now least recently used
        backend.put("c", "json", b"cccc")
        assert backend.get("a") is not None
        assert backend.get("b") is None

    def test_oversized_payload_is_not_cached(self):
        backend = MemoryBackend(max_bytes=4)
        backend.put("big", "json", b"toolarge")
        assert backend.get("big") is None
        assert backend.stats()["entries"] == 0

    def test_overwrite_replaces_bytes(self):
        backend = MemoryBackend()
        backend.put("k", "json", b"aaaa")
        backend.put("k", "json", b"bb")
        assert backend.get("k") == ("json", b"bb")
        assert backend.stats()["bytes"] == 2

    def test_clear_reports_removals(self):
        backend = MemoryBackend()
        backend.put("k1", "json", b"aaaa")
        backend.put("k2", "json", b"bb")
        assert backend.clear() == (2, 6)
        assert backend.stats()["entries"] == 0

    def test_stats_groups_by_kind(self):
        backend = MemoryBackend()
        backend.put("k1", "json", b"aa", kind="alpha")
        backend.put("k2", "json", b"bb", kind="alpha")
        backend.put("k3", "json", b"cc", kind="beta")
        stats = backend.stats()
        assert stats["kinds"]["alpha"] == {"entries": 2, "bytes": 4}
        assert stats["kinds"]["beta"] == {"entries": 1, "bytes": 2}


class TestDiskBackend:
    def test_round_trip_and_layout(self, tmp_path):
        backend = DiskBackend(tmp_path / "cache")
        key = "ab" + "0" * 62
        backend.put(key, "graph", b"\x00binary\xff", kind="test.kind")
        assert backend.get(key) == ("graph", b"\x00binary\xff")
        payload = tmp_path / "cache" / "objects" / "ab" / f"{key}.bin"
        assert payload.exists()
        assert (tmp_path / "cache" / "index.sqlite").exists()

    def test_two_backends_share_a_root(self, tmp_path):
        writer = DiskBackend(tmp_path / "cache")
        writer.put("k" * 64, "json", b"shared", kind="test")
        reader = DiskBackend(tmp_path / "cache")
        assert reader.get("k" * 64) == ("json", b"shared")

    def test_missing_payload_degrades_to_miss(self, tmp_path):
        backend = DiskBackend(tmp_path / "cache")
        key = "cd" + "0" * 62
        backend.put(key, "json", b"data", kind="test")
        (tmp_path / "cache" / "objects" / "cd" / f"{key}.bin").unlink()
        assert backend.get(key) is None

    def test_put_recreates_a_removed_shard_directory(self, tmp_path):
        import shutil

        backend = DiskBackend(tmp_path / "cache")
        first, second = "ef" + "0" * 62, "ef" + "1" * 62
        backend.put(first, "json", b"one", kind="test")
        shutil.rmtree(tmp_path / "cache" / "objects" / "ef")
        backend.put(second, "json", b"two", kind="test")
        assert backend.get(second) == ("json", b"two")
        assert backend.get(first) is None
        assert not list((tmp_path / "cache" / "objects" / "ef").glob("*.tmp"))

    def test_clear_removes_index_and_payloads(self, tmp_path):
        backend = DiskBackend(tmp_path / "cache")
        backend.put("a" * 64, "json", b"xx", kind="t")
        backend.put("b" * 64, "json", b"yyy", kind="t")
        assert backend.clear() == (2, 5)
        assert backend.stats()["entries"] == 0
        assert backend.get("a" * 64) is None

    def test_stats_kinds_and_root(self, tmp_path):
        backend = DiskBackend(tmp_path / "cache")
        backend.put("a" * 64, "json", b"xx", kind="alpha")
        backend.put("b" * 64, "json", b"yyy", kind="beta")
        stats = backend.stats()
        assert stats["root"] == str(tmp_path / "cache")
        assert stats["kinds"]["alpha"]["entries"] == 1
        assert stats["kinds"]["beta"]["bytes"] == 3

    def test_default_root_honours_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_cache_dir() == str(tmp_path / "env-cache")
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache_dir() == ".repro-cache"

    def test_stats_counts_unindexed_payloads_from_disk(self, tmp_path):
        backend = DiskBackend(tmp_path / "cache")
        backend.put("a" * 64, "json", b"xx", kind="alpha")
        # Simulate an index insert that failed after the payload landed:
        # drop the row but keep the payload file.
        import contextlib
        import sqlite3

        with contextlib.closing(
            sqlite3.connect(tmp_path / "cache" / "index.sqlite")
        ) as connection:
            connection.execute("DELETE FROM entries")
            connection.commit()
        orphan = tmp_path / "cache" / "objects" / "aa" / (("a" * 64) + ".bin")
        assert orphan.is_file()
        stats = backend.stats()
        assert stats["kinds"]["(unindexed)"] == {"entries": 1, "bytes": 2}
        assert stats["entries"] == 1
        assert stats["bytes"] == 2

    def test_stats_ignores_tmp_files_and_trusts_the_index(self, tmp_path):
        backend = DiskBackend(tmp_path / "cache")
        backend.put("a" * 64, "json", b"xx", kind="alpha")
        # In-flight writes and indexed payloads are not "(unindexed)".
        (tmp_path / "cache" / "objects" / "aa" / "partial.tmp").write_bytes(b"junk")
        stats = backend.stats()
        assert "(unindexed)" not in stats["kinds"]
        assert stats["entries"] == 1
        assert stats["bytes"] == 2
