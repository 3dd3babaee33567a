"""Per-module code fingerprints: the self-invalidation half of a key.

A cache entry is only valid while the code that produced it is
unchanged, so every key folds in a digest of the *source files* of the
modules the cached computation depends on.  Editing any of those files
changes the fingerprint, changes the key, and turns every stale entry
into a silent miss — no explicit invalidation step, no version bump to
forget.

Fingerprints, and their combinations per module set, are memoized per
process (source files do not change under a running sweep);
:func:`clear_fingerprint_cache` exists for tests that rewrite module
files on disk.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
from typing import Dict, FrozenSet, Iterable

_CACHE: Dict[str, str] = {}
_COMBINED: Dict[FrozenSet[str], str] = {}


def module_fingerprint(name: str) -> str:
    """Digest of the named module's source file (memoized).

    Modules without a resolvable source file (builtins, namespace
    packages, missing modules) get a stable ``unresolved:<name>``
    sentinel: their entries still cache, they just never self-invalidate
    through this module.
    """
    cached = _CACHE.get(name)
    if cached is None:
        cached = _CACHE[name] = _compute_fingerprint(name)
    return cached


def _compute_fingerprint(name: str) -> str:
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, ValueError):
        spec = None
    origin = getattr(spec, "origin", None)
    if not origin or not os.path.isfile(origin):
        return f"unresolved:{name}"
    digest = hashlib.sha256()
    with open(origin, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def combined_fingerprint(names: Iterable[str]) -> str:
    """One digest over a set of modules, order-insensitive (memoized)."""
    modules = frozenset(names)
    cached = _COMBINED.get(modules)
    if cached is None:
        digest = hashlib.sha256()
        for name in sorted(modules):
            digest.update(name.encode("utf-8"))
            digest.update(b"\0")
            digest.update(module_fingerprint(name).encode("utf-8"))
            digest.update(b"\n")
        cached = _COMBINED[modules] = digest.hexdigest()
    return cached


def clear_fingerprint_cache() -> None:
    """Drop memoized fingerprints (tests rewrite module files)."""
    _CACHE.clear()
    _COMBINED.clear()
