"""repro.store — the content-addressed result store.

Every work unit of the reproduction — a sweep point, a claim check, a
gadget graph, a MaxIS solve — is a pure function of its parameters and
of the code that computes it.  This package memoizes whole units (and
the greedy code-table search, the one step inside them that costs more
than its lookup) under content addresses: SHA-256 keys over (job kind,
canonicalized params, per-module source fingerprint), so entries
self-invalidate the moment the producing code changes
(``docs/CACHING.md``).

Two backends share one contract: an in-process LRU with a byte budget
(``memory``) and a sqlite-indexed payload tree under ``.repro-cache/``
(``disk``) that concurrent worker processes share safely via per-key
atomic write-then-rename.

The store is **off by default** and process-global, mirroring
:mod:`repro.obs`: call :func:`configure` (the CLI's ``--cache`` flag
does) or wrap a region in :func:`using_store`.  Producers reach it via
:func:`get_store`, which returns ``None`` when caching is off::

    from repro import store

    with store.using_store("disk", path=".repro-cache"):
        theorem1_reports(max_t=5)   # cold: computes + stores
        theorem1_reports(max_t=5)   # warm: every unit is a cache hit

Lookups surface as ``cache.hit``/``cache.miss``/``cache.corrupt``/
``cache.bytes_written`` counters and the ``cache.lookup`` timer in
:mod:`repro.obs`.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, Optional, Union

from ..obs import register_hard_reset_hook
from .backends import (
    DEFAULT_CACHE_DIR,
    DEFAULT_MEMORY_BUDGET,
    DiskBackend,
    MemoryBackend,
    default_cache_dir,
)
from .codecs import Codec, get_codec
from .fingerprint import (
    clear_fingerprint_cache,
    combined_fingerprint,
    module_fingerprint,
)
from .keys import (
    STORE_SCHEMA_VERSION,
    canonical_graph_dict,
    derive_key,
    encode_for_key,
)
from .specs import (
    CODE_MODULES,
    GADGET_MODULES,
    GRAPH_MODULES,
    JOB_SPECS,
    JobCacheSpec,
    MAXIS_MODULES,
    SWEEP_MODULES,
)
from .store import MISS, ResultStore

#: The process-global store; ``None`` means caching is off (default).
_STORE: Optional[ResultStore] = None

#: The live memory backend, kept module-global so the obs hard-reset
#: hook can clear fork-inherited entries in worker processes.
_MEMORY_BACKEND: Optional[MemoryBackend] = None


def get_store() -> Optional[ResultStore]:
    """The configured store, or ``None`` while caching is off."""
    return _STORE


def store_mode() -> str:
    """``"off"``, ``"memory"``, or ``"disk"``."""
    return _STORE.name if _STORE is not None else "off"


def _new_store(
    mode: Optional[str], path: Optional[str], max_bytes: Optional[int]
) -> Optional[ResultStore]:
    global _MEMORY_BACKEND
    if mode is None or mode == "off":
        return None
    if mode == "memory":
        _MEMORY_BACKEND = MemoryBackend(
            max_bytes if max_bytes is not None else DEFAULT_MEMORY_BUDGET
        )
        return ResultStore(_MEMORY_BACKEND)
    if mode == "disk":
        return ResultStore(DiskBackend(path))
    raise ValueError(f"unknown cache mode {mode!r}; expected off|memory|disk")


def configure(
    mode: Optional[str],
    path: Optional[str] = None,
    max_bytes: Optional[int] = None,
) -> Optional[ResultStore]:
    """Set the process-global store; returns it (``None`` for ``off``).

    ``memory`` always starts a fresh LRU (``max_bytes`` budget);
    ``disk`` opens the sqlite-indexed tree at ``path`` (default
    ``$REPRO_CACHE_DIR`` or ``.repro-cache``), creating it on first use.
    The store it replaces is closed.
    """
    global _STORE
    previous, _STORE = _STORE, _new_store(mode, path, max_bytes)
    if previous is not None:
        previous.close()
    return _STORE


@contextlib.contextmanager
def using_store(
    mode: Optional[str],
    path: Optional[str] = None,
    max_bytes: Optional[int] = None,
) -> Iterator[Optional[ResultStore]]:
    """Scope a store configuration to a block, restoring the previous one.

    The store active at the end of the block is closed.
    """
    global _STORE, _MEMORY_BACKEND
    previous_store = _STORE
    previous_memory = _MEMORY_BACKEND
    _STORE = _new_store(mode, path, max_bytes)
    try:
        yield _STORE
    finally:
        if _STORE is not None:
            _STORE.close()
        _STORE = previous_store
        _MEMORY_BACKEND = previous_memory


def _clear_inherited_memory_state() -> None:
    """Obs hard-reset hook: forget fork-inherited in-process cache state.

    Workers under a forking start method inherit the parent's memory
    backend mid-sweep; serving its entries there would double-count
    hits and skew merged totals.  Disk entries are *meant* to be shared
    across processes, so only the memory backend is cleared.
    """
    if _MEMORY_BACKEND is not None:
        _MEMORY_BACKEND.clear()


register_hard_reset_hook(_clear_inherited_memory_state)

__all__ = [
    "CODE_MODULES",
    "Codec",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MEMORY_BUDGET",
    "DiskBackend",
    "GADGET_MODULES",
    "GRAPH_MODULES",
    "JOB_SPECS",
    "JobCacheSpec",
    "MAXIS_MODULES",
    "MISS",
    "MemoryBackend",
    "ResultStore",
    "STORE_SCHEMA_VERSION",
    "SWEEP_MODULES",
    "canonical_graph_dict",
    "clear_fingerprint_cache",
    "combined_fingerprint",
    "configure",
    "default_cache_dir",
    "derive_key",
    "encode_for_key",
    "get_codec",
    "get_store",
    "module_fingerprint",
    "store_mode",
    "using_store",
]
