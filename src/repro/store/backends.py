"""Storage backends: in-process LRU and the shared on-disk store.

Both speak the same four-method contract — ``get``/``put``/``clear``/
``stats`` over ``(codec_name, payload_bytes)`` values — so the
:class:`~repro.store.store.ResultStore` is backend-agnostic.

The disk backend is the multi-process one: a sqlite index
(``index.sqlite``) maps keys to payload files under ``objects/``, and
every payload is written to a process-private temp file then
``os.replace``d into place, so concurrent writers of the *same* key
race harmlessly (both write identical content-addressed bytes) and a
reader never observes a half-written payload.  Index I/O is defensive:
a locked or corrupt index degrades to misses, never to exceptions on
the compute path.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import sqlite3
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple, Union

#: Default byte budget for the in-process LRU backend.
DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024

#: Default on-disk cache root, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    """The on-disk root: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)


class MemoryBackend:
    """In-process LRU keyed by content address, bounded by bytes.

    ``get`` refreshes recency; ``put`` evicts least-recently-used
    entries until the payload bytes fit the budget.  A payload larger
    than the whole budget is simply not cached.
    """

    name = "memory"

    def __init__(self, max_bytes: int = DEFAULT_MEMORY_BUDGET) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, Tuple[str, bytes, str]]" = OrderedDict()
        self._bytes = 0

    def get(self, key: str) -> Optional[Tuple[str, bytes]]:
        """Return ``(codec_name, payload)`` or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0], entry[1]

    def put(self, key: str, codec: str, data: bytes, kind: str = "") -> None:
        """Insert (or refresh) an entry, evicting LRU to fit the budget."""
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= len(old[1])
        if len(data) > self.max_bytes:
            return
        self._entries[key] = (codec, data, kind)
        self._bytes += len(data)
        while self._bytes > self.max_bytes:
            _, (_, evicted, _) = self._entries.popitem(last=False)
            self._bytes -= len(evicted)

    def clear(self) -> Tuple[int, int]:
        """Drop everything; return ``(entries_removed, bytes_removed)``."""
        removed = (len(self._entries), self._bytes)
        self._entries.clear()
        self._bytes = 0
        return removed

    def stats(self) -> Dict[str, Any]:
        """Entry/byte totals, per job kind and overall."""
        kinds: Dict[str, Dict[str, int]] = {}
        for codec, data, kind in self._entries.values():
            bucket = kinds.setdefault(kind or "?", {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += len(data)
        return {
            "backend": self.name,
            "entries": len(self._entries),
            "bytes": self._bytes,
            "max_bytes": self.max_bytes,
            "kinds": kinds,
        }


class DiskBackend:
    """Sqlite-indexed payload files under ``.repro-cache/``.

    Layout::

        <root>/index.sqlite                  key -> (kind, codec, path, bytes)
        <root>/objects/<key[:2]>/<key>.bin   one payload per key

    Safe for concurrent multi-process use: payloads land via atomic
    write-then-rename, the index uses one short-lived connection per
    operation with a busy timeout, and any sqlite error downgrades to a
    miss (``get``) or a skipped write (``put``).
    """

    name = "disk"

    _BUSY_TIMEOUT_S = 10.0

    def __init__(self, root: Optional[Union[str, pathlib.Path]] = None) -> None:
        self.root = pathlib.Path(root) if root is not None else pathlib.Path(
            default_cache_dir()
        )
        self.objects_dir = self.root / "objects"
        self.index_path = self.root / "index.sqlite"
        self.objects_dir.mkdir(parents=True, exist_ok=True)
        self._init_index()

    def _connect(self) -> sqlite3.Connection:
        return sqlite3.connect(str(self.index_path), timeout=self._BUSY_TIMEOUT_S)

    def _init_index(self) -> None:
        with contextlib.closing(self._connect()) as connection:
            connection.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                "  key TEXT PRIMARY KEY,"
                "  kind TEXT NOT NULL,"
                "  codec TEXT NOT NULL,"
                "  path TEXT NOT NULL,"
                "  nbytes INTEGER NOT NULL,"
                "  created_s REAL NOT NULL"
                ")"
            )
            connection.commit()

    def _payload_path(self, key: str) -> pathlib.Path:
        return self.objects_dir / key[:2] / f"{key}.bin"

    def get(self, key: str) -> Optional[Tuple[str, bytes]]:
        """Return ``(codec_name, payload)`` or ``None``."""
        try:
            with contextlib.closing(self._connect()) as connection:
                row = connection.execute(
                    "SELECT codec, path FROM entries WHERE key = ?", (key,)
                ).fetchone()
        except sqlite3.Error:
            return None
        if row is None:
            return None
        codec, relative = row
        try:
            data = (self.root / relative).read_bytes()
        except OSError:
            return None  # index ahead of payload (cleared mid-read): miss
        return codec, data

    def put(self, key: str, codec: str, data: bytes, kind: str = "") -> None:
        """Write the payload atomically, then upsert the index row."""
        path = self._payload_path(key)
        temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            try:
                temporary.write_bytes(data)
            except FileNotFoundError:
                # The first write into this shard, or its directory was
                # removed: create it and retry once.
                path.parent.mkdir(parents=True, exist_ok=True)
                temporary.write_bytes(data)
            os.replace(temporary, path)
        except OSError:
            with contextlib.suppress(OSError):
                temporary.unlink()
            return
        try:
            with contextlib.closing(self._connect()) as connection:
                connection.execute(
                    "INSERT OR REPLACE INTO entries"
                    " (key, kind, codec, path, nbytes, created_s)"
                    " VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        key,
                        kind,
                        codec,
                        str(path.relative_to(self.root)),
                        len(data),
                        time.time(),
                    ),
                )
                connection.commit()
        except sqlite3.Error:
            pass  # payload is in place; the next writer re-indexes it

    def clear(self) -> Tuple[int, int]:
        """Drop index and payloads; return ``(entries, bytes)`` removed."""
        stats = self.stats()
        try:
            with contextlib.closing(self._connect()) as connection:
                connection.execute("DELETE FROM entries")
                connection.commit()
        except sqlite3.Error:
            pass
        for directory, _, filenames in os.walk(self.objects_dir):
            for filename in filenames:
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(directory, filename))
        return stats["entries"], stats["bytes"]

    def stats(self) -> Dict[str, Any]:
        """Entry/byte totals, per job kind and overall.

        ``put`` deliberately tolerates a failed index insert (the
        payload stays useful; the next writer re-indexes it), so the
        sqlite rows can lag the ``objects/`` tree.  Payload files with
        no index row are therefore counted from disk under the
        ``"(unindexed)"`` kind — totals reflect what the store really
        occupies, not just what the index admits to.
        """
        kinds: Dict[str, Dict[str, int]] = {}
        entries = 0
        total_bytes = 0
        indexed_paths = set()
        try:
            with contextlib.closing(self._connect()) as connection:
                rows = connection.execute(
                    "SELECT kind, COUNT(*), SUM(nbytes) FROM entries GROUP BY kind"
                ).fetchall()
                indexed_paths = {
                    path
                    for (path,) in connection.execute(
                        "SELECT path FROM entries"
                    ).fetchall()
                }
        except sqlite3.Error:
            rows = []
        for kind, count, nbytes in rows:
            kinds[kind or "?"] = {"entries": int(count), "bytes": int(nbytes or 0)}
            entries += int(count)
            total_bytes += int(nbytes or 0)
        unindexed = {"entries": 0, "bytes": 0}
        for directory, _, filenames in os.walk(self.objects_dir):
            for filename in filenames:
                if not filename.endswith(".bin"):
                    continue  # in-flight .tmp files are not payloads
                full = pathlib.Path(directory) / filename
                if str(full.relative_to(self.root)) in indexed_paths:
                    continue
                try:
                    size = full.stat().st_size
                except OSError:
                    continue
                unindexed["entries"] += 1
                unindexed["bytes"] += size
        if unindexed["entries"]:
            kinds["(unindexed)"] = unindexed
            entries += unindexed["entries"]
            total_bytes += unindexed["bytes"]
        return {
            "backend": self.name,
            "entries": entries,
            "bytes": total_bytes,
            "root": str(self.root),
            "kinds": kinds,
        }
