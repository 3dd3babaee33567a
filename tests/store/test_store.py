"""ResultStore facade + process-global configuration semantics."""

import contextlib
import os
import pathlib
import signal
import sqlite3
import subprocess
import sys

import pytest

import repro
from repro import obs, store
from repro.store import (
    MISS,
    DiskBackend,
    MemoryBackend,
    ResultStore,
    configure,
    get_store,
    store_mode,
    using_store,
)

MODULES = ["repro.graphs.graph"]


class TestResultStore:
    def test_get_or_compute_misses_then_hits(self):
        calls = []
        result_store = ResultStore(MemoryBackend())

        def compute():
            calls.append(1)
            return {"answer": 42}

        with obs.recording() as recorder:
            first, second, third = [
                result_store.get_or_compute(
                    "test.kind", {"x": 1}, MODULES, "json", compute
                )
                for _ in range(3)
            ]
        assert first == second == third == {"answer": 42}
        assert len(calls) == 1
        assert recorder.counters["cache.miss"] == 1
        assert recorder.counters["cache.hit"] == 2

    def test_sequential_calls_hit_the_cache(self):
        result_store = ResultStore(MemoryBackend(1 << 20))
        calls = []
        with obs.recording() as recorder:
            for _ in range(3):
                value = result_store.get_or_compute(
                    "seq",
                    {"x": 4},
                    MODULES,
                    "json",
                    lambda: calls.append(1) or {"v": 5},
                )
                assert value == {"v": 5}
            assert len(calls) == 1
            assert recorder.counters["cache.miss"] == 1
            assert recorder.counters["cache.hit"] == 2

    def test_failing_compute_propagates_and_is_retried(self):
        backend = MemoryBackend()
        result_store = ResultStore(backend)

        def fail():
            raise RuntimeError("compute failed")

        with pytest.raises(RuntimeError, match="compute failed"):
            result_store.get_or_compute("test.fail", {}, MODULES, "json", fail)
        key = result_store.key_for("test.fail", {}, MODULES)
        assert backend.get(key) is None
        value = result_store.get_or_compute(
            "test.fail", {}, MODULES, "json", lambda: "recovered"
        )
        assert value == "recovered"
        assert result_store.get(key) == "recovered"

    def test_none_is_a_cacheable_value(self):
        result_store = ResultStore(MemoryBackend())
        key = result_store.key_for("test.none", {}, MODULES)
        assert result_store.get(key) is MISS
        result_store.put(key, "test.none", "json", None)
        assert result_store.get(key) is None

    def test_counters_flow_through_obs(self):
        result_store = ResultStore(MemoryBackend())
        key = result_store.key_for("test.count", {}, MODULES)
        with obs.recording() as recorder:
            result_store.get(key)  # miss
            nbytes = result_store.put(key, "test.count", "json", [1, 2, 3])
            result_store.get(key)  # hit
        assert recorder.counters["cache.miss"] == 1
        assert recorder.counters["cache.hit"] == 1
        assert recorder.counters["cache.bytes_written"] == nbytes
        assert "cache.lookup" in recorder.timer_summaries()

    def test_corrupt_payload_counts_as_miss(self):
        backend = MemoryBackend()
        result_store = ResultStore(backend)
        key = result_store.key_for("test.corrupt", {}, MODULES)
        backend.put(key, "json", b"not json at all {", kind="test.corrupt")
        assert result_store.get(key) is MISS

    def test_unknown_codec_in_entry_counts_as_miss(self):
        backend = MemoryBackend()
        result_store = ResultStore(backend)
        key = result_store.key_for("test.codec", {}, MODULES)
        backend.put(key, "from_the_future", b"[]", kind="test.codec")
        assert result_store.get(key) is MISS

    def test_put_returns_payload_size(self, tmp_path):
        result_store = ResultStore(DiskBackend(tmp_path))
        key = result_store.key_for("test.size", {}, MODULES)
        nbytes = result_store.put(key, "test.size", "json", "payload")
        assert nbytes == len(b'"payload"')


def _triangle():
    from repro.graphs import WeightedGraph

    graph = WeightedGraph()
    for node, weight in (("a", 1), (("b", 0), 2), (3, 1.5)):
        graph.add_node(node, weight=weight)
    graph.add_edge("a", ("b", 0))
    graph.add_edge(("b", 0), 3)
    return graph


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _garble(path):
    path.write_bytes(b"\xff\xfe\x00garbled")


def _wrong_shape_list(path):
    path.write_bytes(b"[]")


def _wrong_shape_dict(path):
    path.write_bytes(b"{}")


class _ExplodingCodec:
    name = "exploding"

    def decode(self, data):
        raise RuntimeError("codec bug")


class TestCorruptDiskPayloads:
    """A damaged disk entry costs a recompute, never a wrong value."""

    CASES = [
        ("json", {"answer": [1, 2.5, "x"]}),
        ("graph", _triangle()),
        ("node_list", ["a", 3, ("b", 0)]),
    ]

    def _cold_then_damaged(self, tmp_path, codec, value, damage):
        backend = DiskBackend(tmp_path)
        result_store = ResultStore(backend)
        calls = []

        def compute():
            calls.append(1)
            return value

        def lookup():
            return result_store.get_or_compute(
                "test.fault", {"codec": codec}, MODULES, codec, compute
            )

        lookup()
        key = result_store.key_for("test.fault", {"codec": codec}, MODULES)
        damage(backend._payload_path(key))
        with obs.recording() as recorder:
            recovered = lookup()
            again = lookup()
        return calls, recovered, again, recorder.counters

    @pytest.mark.parametrize("codec,value", CASES)
    @pytest.mark.parametrize(
        "damage", [_truncate, _garble], ids=["truncated", "garbled"]
    )
    def test_undecodable_payload_is_recomputed(self, tmp_path, codec, value, damage):
        calls, recovered, again, counters = self._cold_then_damaged(
            tmp_path, codec, value, damage
        )
        assert len(calls) == 2
        assert recovered == again == value
        assert counters["cache.corrupt"] == 1
        assert counters["cache.miss"] == 1
        assert counters["cache.hit"] == 1

    @pytest.mark.parametrize(
        "damage", [_wrong_shape_list, _wrong_shape_dict], ids=["list", "dict"]
    )
    def test_wrongly_shaped_graph_is_recomputed(self, tmp_path, damage):
        value = _triangle()
        calls, recovered, again, counters = self._cold_then_damaged(
            tmp_path, "graph", value, damage
        )
        assert len(calls) == 2
        assert recovered == again == value
        assert counters["cache.corrupt"] == 1

    @pytest.mark.parametrize("codec,value", CASES)
    def test_payload_deleted_behind_the_index_is_recomputed(
        self, tmp_path, codec, value
    ):
        calls, recovered, again, counters = self._cold_then_damaged(
            tmp_path, codec, value, lambda path: path.unlink()
        )
        assert len(calls) == 2
        assert recovered == again == value
        assert counters["cache.miss"] == 1
        assert "cache.corrupt" not in counters

    def test_codec_bugs_propagate(self, tmp_path, monkeypatch):
        from repro.store import codecs

        monkeypatch.setitem(codecs.CODECS, "exploding", _ExplodingCodec())
        backend = DiskBackend(tmp_path)
        result_store = ResultStore(backend)
        key = result_store.key_for("test.bug", {}, MODULES)
        backend.put(key, "exploding", b"[]", kind="test.bug")
        with pytest.raises(RuntimeError, match="codec bug"):
            result_store.get(key)


#: A writer that dies by SIGKILL after ``write_bytes`` has written its
#: temp file and before ``os.replace`` moves it into place.
_KILLED_WRITER = """
import os, signal, sys
from repro.store import DiskBackend, ResultStore

os.replace = lambda *args: os.kill(os.getpid(), signal.SIGKILL)
ResultStore(DiskBackend(sys.argv[1])).get_or_compute(
    "test.fault", {}, sys.argv[2:], "json", lambda: {"answer": 42}
)
"""


class TestStoreFaults:
    """A locked index or a killed writer costs a miss and a recompute,
    never a wrong value, and leaves a readable entry behind."""

    VALUE = {"answer": 42}

    def _lookup(self, result_store, calls):
        def compute():
            calls.append(1)
            return dict(self.VALUE)

        return result_store.get_or_compute("test.fault", {}, MODULES, "json", compute)

    def test_locked_index_misses_then_recovers(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend._BUSY_TIMEOUT_S = 0.05  # fail fast on the held lock
        result_store = ResultStore(backend)
        key = result_store.key_for("test.fault", {}, MODULES)
        calls = []
        with contextlib.closing(
            sqlite3.connect(backend.index_path, isolation_level=None)
        ) as holder:
            holder.execute("BEGIN EXCLUSIVE")
            with obs.recording() as recorder:
                assert self._lookup(result_store, calls) == self.VALUE
            holder.execute("ROLLBACK")
        assert calls == [1]
        assert recorder.counters["cache.miss"] == 1
        # The payload landed but its index row was skipped under the
        # lock, so the next lookup recomputes once and re-indexes it.
        assert backend.stats()["kinds"]["(unindexed)"]["entries"] == 1
        assert self._lookup(result_store, calls) == self.VALUE
        assert calls == [1, 1]
        assert result_store.get(key) == self.VALUE
        assert backend.stats()["entries"] == 1

    def test_writer_killed_before_rename_leaves_no_entry(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
        writer = subprocess.run(
            [sys.executable, "-c", _KILLED_WRITER, str(tmp_path), *MODULES],
            env=env,
            timeout=60,
        )
        assert writer.returncode == -signal.SIGKILL
        backend = DiskBackend(tmp_path)
        result_store = ResultStore(backend)
        key = result_store.key_for("test.fault", {}, MODULES)
        orphans = list(backend.objects_dir.rglob("*.tmp"))
        assert [path.name.split(".")[0] for path in orphans] == [key]
        assert backend.stats()["entries"] == 0
        calls = []
        with obs.recording() as recorder:
            assert self._lookup(result_store, calls) == self.VALUE
        assert calls == [1]
        assert recorder.counters["cache.miss"] == 1
        assert result_store.get(key) == self.VALUE
        assert backend.stats()["entries"] == 1


class TestConfigure:
    def test_off_by_default(self):
        assert get_store() is None
        assert store_mode() == "off"

    def test_configure_modes(self, tmp_path):
        try:
            assert configure("off") is None
            memory = configure("memory")
            assert memory is not None and memory.name == "memory"
            disk = configure("disk", path=str(tmp_path / "c"))
            assert disk is not None and disk.name == "disk"
            assert store_mode() == "disk"
        finally:
            configure("off")

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="cache mode"):
            configure("turbo")

    def test_using_store_restores_previous(self):
        assert get_store() is None
        with using_store("memory") as active:
            assert get_store() is active
            assert store_mode() == "memory"
        assert get_store() is None

    def test_memory_mode_starts_fresh_each_time(self):
        with using_store("memory") as first:
            key = first.key_for("test.fresh", {}, MODULES)
            first.put(key, "test.fresh", "json", 1)
            assert first.get(key) == 1
        with using_store("memory") as second:
            assert second.get(key) is MISS


class TestHardResetHook:
    """Regression: ``hard_reset`` must clear fork-inherited cache state."""

    def test_hard_reset_clears_the_memory_backend(self):
        with using_store("memory") as active:
            key = active.key_for("test.reset", {}, MODULES)
            active.put(key, "test.reset", "json", {"warm": True})
            assert active.get(key) == {"warm": True}
            obs.get_recorder().hard_reset()
            assert active.backend.stats()["entries"] == 0
            assert active.get(key) is MISS

    def test_hard_reset_leaves_disk_entries_alone(self, tmp_path):
        # The disk store is *shared* state, not per-process state: a
        # worker's hard reset must not wipe the parent's warm cache.
        with using_store("disk", path=str(tmp_path)) as active:
            key = active.key_for("test.disk", {}, MODULES)
            active.put(key, "test.disk", "json", 7)
            obs.get_recorder().hard_reset()
            assert active.get(key) == 7

    def test_hook_registry_deduplicates(self):
        from repro.obs.recorder import _HARD_RESET_HOOKS, register_hard_reset_hook

        before = len(_HARD_RESET_HOOKS)
        store._clear_inherited_memory_state  # the registered hook
        register_hard_reset_hook(store._clear_inherited_memory_state)
        assert len(_HARD_RESET_HOOKS) == before
