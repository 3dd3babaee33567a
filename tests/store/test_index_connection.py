"""The disk store's kept index connection: one per process and thread.

``DiskBackend`` keeps one sqlite connection per (process, thread) in
WAL mode.  These tests pin what that must not change: forked workers
open their own connection and leave the inherited one alone, threads do
not share one, a replaced store leaves no connection open, a commit
from another process is seen by the next lookup, and an index written
in the old rollback-journal mode still serves hits.
"""

import contextlib
import os
import pathlib
import sqlite3
import subprocess
import sys
import threading

import pytest

import repro
from repro import store
from repro.gadgets import GadgetParameters
from repro.parallel import claims_units, run_units
from repro.parallel import backends as parallel_backends
from repro.store import DiskBackend, using_store
from repro.store import backends as store_backends

_CONTEXT = parallel_backends._multiprocessing_context()


def _integrity(backend):
    return backend._index().execute("PRAGMA integrity_check").fetchall()


def _journal_mode(index_path):
    with contextlib.closing(sqlite3.connect(index_path)) as connection:
        return connection.execute("PRAGMA journal_mode").fetchone()[0]


class TestForkedWorkers:
    @pytest.mark.skipif(
        _CONTEXT is None or _CONTEXT.get_start_method() != "fork",
        reason="needs workers forked while the parent's connection is open",
    )
    def test_workers_forked_with_an_open_connection_write_entries(self, tmp_path):
        # q = ell + alpha = 6 is no prime power, so each worker runs the
        # greedy code search and writes its table to the store itself.
        units = claims_units(GadgetParameters(ell=5, alpha=1, t=2), num_samples=1)
        parallel_backends.close_pool()
        try:
            with using_store("disk", path=str(tmp_path)) as active:
                backend = active.backend
                assert backend.get("0" * 64) is None  # the parent's connection is open
                run_units(units, workers=2)
                keys = [
                    key
                    for (key,) in backend._index().execute("SELECT key FROM entries")
                ]
                kinds = backend.stats()["kinds"]
                assert all(backend.get(key) is not None for key in keys)
                assert _integrity(backend) == [("ok",)]
        finally:
            parallel_backends.close_pool()
        assert "codes.code_mapping" in kinds
        assert kinds["parallel.linear_claim"]["entries"] == len(units)
        assert len(keys) == sum(kind["entries"] for kind in kinds.values())

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_opens_its_own_connection(self, tmp_path):
        backend = DiskBackend(tmp_path)
        parent_connection = backend._index()
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the child
            ok = False
            try:
                backend.put("c" * 64, "json", b"child", kind="test")
                ok = backend._index() is not parent_connection
                backend.close()
                # Closing set the inherited connection aside, unclosed.
                ok = ok and backend._connections == {}
                ok = ok and store_backends._INHERITED[-1][0] is parent_connection
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        # The child left the parent's connection open and usable.
        assert backend._index() is parent_connection
        assert backend.get("c" * 64) == ("json", b"child")
        assert _integrity(backend) == [("ok",)]


class TestThreads:
    def test_threads_interleave_puts_and_gets(self, tmp_path):
        # More threads than cores, switching often: each round every
        # thread writes one entry, then reads every thread's entry.
        backend = DiskBackend(tmp_path)
        names = "abcd"
        rounds = 20
        barrier = threading.Barrier(len(names))
        errors = []
        connections = {}

        def work(name):
            try:
                for i in range(rounds):
                    barrier.wait(timeout=30)
                    backend.put(f"{name}{i:063d}", "json", f"{name}{i}".encode(), kind=name)
                    barrier.wait(timeout=30)
                    for who in names:
                        entry = backend.get(f"{who}{i:063d}")
                        if entry != ("json", f"{who}{i}".encode()):
                            errors.append((name, who, i, entry))
                connections[name] = backend._index()
            except Exception as error:  # noqa: BLE001
                errors.append(error)
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(name,)) for name in names]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len({id(connection) for connection in connections.values()}) == len(names)
        assert backend.stats()["entries"] == len(names) * rounds
        assert _integrity(backend) == [("ok",)]
        backend.close()
        assert backend._connections == {}


class TestClosing:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="counts open descriptors on Linux"
    )
    def test_replaced_stores_leave_no_descriptor_open(self, tmp_path):
        def cycle():
            with using_store("disk", path=str(tmp_path)) as active:
                active.backend.put("d" * 64, "json", b"x", kind="test")
                assert active.backend.get("d" * 64) == ("json", b"x")

        cycle()  # first use: lazy imports, the index and shard directories
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(200):
            cycle()
        assert len(os.listdir("/proc/self/fd")) == before

    def test_configure_closes_the_store_it_replaces(self, tmp_path):
        try:
            first = store.configure("disk", path=str(tmp_path / "one")).backend
            assert first._connections
            second = store.configure("disk", path=str(tmp_path / "two")).backend
            assert first._connections == {}
            assert second._connections
            store.configure("off")
            assert second._connections == {}
        finally:
            store.configure("off")

    def test_a_closed_backend_reopens_on_next_use(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put("e" * 64, "json", b"kept", kind="test")
        backend.close()
        assert backend.get("e" * 64) == ("json", b"kept")


#: Commits one entry from a separate process.
_WRITER = """
import sys
from repro.store import DiskBackend

DiskBackend(sys.argv[1]).put(sys.argv[2], "json", b"from another process", kind="test")
"""


class TestVisibility:
    def test_next_get_sees_another_processes_commit(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put("a" * 64, "json", b"ours", kind="test")
        assert backend.get("a" * 64) == ("json", b"ours")
        assert backend.get("b" * 64) is None
        assert backend.stats()["entries"] == 1
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]))
        subprocess.run(
            [sys.executable, "-c", _WRITER, str(tmp_path), "b" * 64],
            env=env,
            check=True,
            timeout=60,
        )
        assert backend.get("b" * 64) == ("json", b"from another process")
        assert backend.stats()["entries"] == 2

    def test_index_written_in_rollback_journal_mode_serves_hits(self, tmp_path):
        # The layout and schema of an index from before WAL mode, written
        # with one connection and one commit per entry.
        key = "f" * 64
        relative = pathlib.Path("objects") / key[:2] / f"{key}.bin"
        (tmp_path / relative).parent.mkdir(parents=True)
        (tmp_path / relative).write_bytes(b"[1, 2]")
        index_path = tmp_path / "index.sqlite"
        with contextlib.closing(sqlite3.connect(index_path)) as connection:
            connection.execute(
                "CREATE TABLE entries (key TEXT PRIMARY KEY, kind TEXT NOT NULL,"
                " codec TEXT NOT NULL, path TEXT NOT NULL,"
                " nbytes INTEGER NOT NULL, created_s REAL NOT NULL)"
            )
            connection.execute(
                "INSERT INTO entries VALUES (?, ?, ?, ?, ?, ?)",
                (key, "test", "json", str(relative), 6, 0.0),
            )
            connection.commit()
        assert _journal_mode(index_path) == "delete"
        backend = DiskBackend(tmp_path)
        assert backend.get(key) == ("json", b"[1, 2]")
        assert backend.stats()["kinds"] == {"test": {"entries": 1, "bytes": 6}}
        assert _journal_mode(index_path) == "wal"

    def test_unreadable_index_misses_and_skips_writes(self, tmp_path):
        backend = DiskBackend(tmp_path)
        backend.put("a" * 64, "json", b"ours", kind="test")
        backend.close()
        for leftover in tmp_path.glob("index.sqlite*"):
            leftover.unlink()
        (tmp_path / "index.sqlite").write_bytes(b"not a database" * 100)
        assert backend.get("a" * 64) is None
        backend.put("b" * 64, "json", b"skipped", kind="test")
        assert backend.get("b" * 64) is None
        assert backend._connections == {}
