"""Canonical cache-key derivation.

A key is the SHA-256 of one canonical JSON blob holding the job kind,
the canonicalized parameters, the combined code fingerprint of the
modules the computation depends on, and the store schema version.  Two
calls that describe the same computation — regardless of dict ordering,
tuple-vs-list spelling, or graph construction order — derive the same
key; any difference in semantics derives a different one.

Graphs canonicalize structurally (sorted node/weight pairs plus sorted
undirected edges over the tagged-node encoding of
:mod:`repro.graphs.serialize`), so a gadget instance built in a
different insertion order still hits.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

#: Bumped whenever key derivation or a codec's payload shape changes;
#: folded into every key so old on-disk entries become misses instead
#: of decode errors.
STORE_SCHEMA_VERSION = 1


def encode_for_key(value: Any) -> Any:
    """Reduce ``value`` to a canonical JSON-native structure.

    Supported: ``None``, booleans, numbers, strings, lists/tuples
    (both become lists), string-keyed dicts, and
    :class:`~repro.graphs.graph.WeightedGraph` (via
    :func:`canonical_graph_dict`).  Anything else raises ``TypeError``
    loudly — a silently unstable key is worse than no cache.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [encode_for_key(item) for item in value]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(
                    f"cache-key dicts need string keys, got {key!r}"
                )
        return {key: encode_for_key(value[key]) for key in sorted(value)}
    from ..graphs.graph import WeightedGraph

    if isinstance(value, WeightedGraph):
        return {"__graph__": canonical_graph_dict(value)}
    raise TypeError(
        f"cannot derive a cache key from {type(value).__name__}: {value!r}"
    )


def canonical_graph_dict(graph: Any) -> Dict[str, Any]:
    """A graph as sorted ``nodes``/``edges`` lists over encoded node ids.

    Insertion-order free: the same graph built in any order (or decoded
    from a cached payload) canonicalizes identically.  Each node is
    encoded once and ranked by its ``json.dumps(sort_keys=True)`` text,
    computed once; edges are oriented and sorted by their endpoints'
    ranks.
    """
    from ..graphs.serialize import encode_node

    encoded = {node: encode_node(node) for node in graph.nodes()}
    order = sorted(
        graph.nodes(), key=lambda node: json.dumps(encoded[node], sort_keys=True)
    )
    rank = {node: index for index, node in enumerate(order)}
    edges = sorted(
        (rank[u], rank[v]) if rank[u] < rank[v] else (rank[v], rank[u])
        for u, v in graph.edges()
    )
    return {
        "nodes": [[encoded[node], graph.weight(node)] for node in order],
        "edges": [[encoded[order[a]], encoded[order[b]]] for a, b in edges],
    }


def derive_key(kind: str, params: Any, fingerprint: str) -> str:
    """The content address of one computation (64 hex chars)."""
    blob = json.dumps(
        {
            "fingerprint": fingerprint,
            "kind": kind,
            "params": encode_for_key(params),
            "schema": STORE_SCHEMA_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
