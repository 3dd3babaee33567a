"""The store facade: keys in, typed values out, metrics always on.

:class:`ResultStore` binds a backend to the key/codec layers and
instruments every lookup with the ``cache.hit`` / ``cache.miss``
counters, the ``cache.bytes_written`` counter, and the ``cache.lookup``
timer in :mod:`repro.obs` — all of which flow through recorder
snapshot/merge, so ``--profile`` totals stay worker-count-invariant.

A payload the codecs cannot decode (truncated or garbled bytes, a
wrong shape, a codec this build does not know) counts as a miss and on
the ``cache.corrupt`` counter: the caller recomputes and overwrites the
entry.  Any other error from a codec is a bug and propagates.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from .. import obs
from .codecs import get_codec
from .fingerprint import combined_fingerprint
from .keys import derive_key

_obs = obs.get_recorder()

#: Sentinel returned by :meth:`ResultStore.get` on a miss, so ``None``
#: stays a cacheable value.
MISS = object()


class ResultStore:
    """Content-addressed lookups over one backend."""

    def __init__(self, backend: Any) -> None:
        self.backend = backend

    @property
    def name(self) -> str:
        """The backend's mode name (``memory`` or ``disk``)."""
        return self.backend.name

    def key_for(self, kind: str, params: Any, modules: Iterable[str]) -> str:
        """Derive the content address of one computation."""
        return derive_key(kind, params, combined_fingerprint(modules))

    def get(self, key: str) -> Any:
        """Return the decoded value, or :data:`MISS`."""
        with _obs.time("cache.lookup"):
            entry = self.backend.get(key)
        if entry is None:
            _obs.incr("cache.miss")
            return MISS
        codec_name, data = entry
        try:
            value = get_codec(codec_name).decode(data)
        except (ValueError, KeyError, TypeError):
            # ValueError covers JSON and UTF-8 decode errors.
            _obs.incr("cache.corrupt")
            _obs.incr("cache.miss")
            return MISS
        _obs.incr("cache.hit")
        return value

    def put(self, key: str, kind: str, codec_name: str, value: Any) -> int:
        """Encode and store ``value``; return the payload byte count."""
        data = get_codec(codec_name).encode(value)
        self.backend.put(key, codec_name, data, kind=kind)
        _obs.incr("cache.bytes_written", len(data))
        return len(data)

    def get_or_compute(
        self,
        kind: str,
        params: Any,
        modules: Iterable[str],
        codec_name: str,
        compute: Callable[[], Any],
    ) -> Any:
        """One-shot memoization: lookup, else compute and store.

        Concurrent callers of one key may each compute it; their puts
        write identical bytes to the same content address.  ``repro
        serve`` coalesces duplicate requests on its event loop instead.
        """
        key = self.key_for(kind, params, modules)
        value = self.get(key)
        if value is not MISS:
            return value
        value = compute()
        self.put(key, kind, codec_name, value)
        return value
