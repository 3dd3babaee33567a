"""Typed payload codecs: domain objects <-> canonical bytes.

Each codec turns one kind of cached value into deterministic JSON
bytes and back, reusing the existing serializers
(:mod:`repro.graphs.serialize` for graphs,
:mod:`repro.core.serialize` for reports and claim checks) so cached
payloads share their round-trip guarantees and test coverage.  The
domain imports happen lazily inside the methods: :mod:`repro.store`
must stay importable from every layer it caches for, without cycles.
"""

from __future__ import annotations

import json
from typing import Any, Dict


class Codec:
    """Encode one value type to bytes and back, deterministically."""

    name = "?"

    def encode(self, value: Any) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes) -> Any:
        raise NotImplementedError


def _dump(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _load(data: bytes) -> Any:
    return json.loads(data.decode("utf-8"))


class JsonCodec(Codec):
    """JSON-native values (numbers, strings, lists, dicts) as-is."""

    name = "json"

    def encode(self, value: Any) -> bytes:
        return _dump(value)

    def decode(self, data: bytes) -> Any:
        return _load(data)


class GraphCodec(Codec):
    """:class:`WeightedGraph` via ``graphs/serialize.py`` (exact)."""

    name = "graph"

    def encode(self, value: Any) -> bytes:
        from ..graphs.serialize import graph_to_json

        return graph_to_json(value).encode("utf-8")

    def decode(self, data: bytes) -> Any:
        from ..graphs.serialize import graph_from_json

        return graph_from_json(data.decode("utf-8"))


class NodeListCodec(Codec):
    """A collection of graph nodes, sorted for stable bytes.

    No kind is stored with it: it is the canonical form of a witness
    node set, which the ``maxis_solve`` unit's ``witness`` field (and so
    every ``/v1/maxis`` body) matches byte for byte.
    """

    name = "node_list"

    def encode(self, value: Any) -> bytes:
        from ..graphs.serialize import encode_node

        encoded = [encode_node(node) for node in value]
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return _dump(encoded)

    def decode(self, data: bytes) -> Any:
        from ..graphs.serialize import decode_node

        return [decode_node(item) for item in _load(data)]


class ReportCodec(Codec):
    """:class:`ExperimentReport` via ``core/serialize.py``."""

    name = "report"

    def encode(self, value: Any) -> bytes:
        from ..core.serialize import report_to_dict

        return _dump(report_to_dict(value))

    def decode(self, data: bytes) -> Any:
        from ..core.serialize import report_from_dict

        return report_from_dict(_load(data))


class ClaimCheckCodec(Codec):
    """:class:`ClaimCheck` via ``core/serialize.py``."""

    name = "claim_check"

    def encode(self, value: Any) -> bytes:
        from ..core.serialize import claim_check_to_dict

        return _dump(claim_check_to_dict(value))

    def decode(self, data: bytes) -> Any:
        from ..core.serialize import claim_check_from_dict

        return claim_check_from_dict(_load(data))


class CodeMappingCodec(Codec):
    """Code tables as :class:`StoredCodeMapping` (distance trusted)."""

    name = "code_mapping"

    def encode(self, value: Any) -> bytes:
        from ..codes.code_mapping import code_mapping_to_dict

        return _dump(code_mapping_to_dict(value))

    def decode(self, data: bytes) -> Any:
        from ..codes.code_mapping import code_mapping_from_dict

        return code_mapping_from_dict(_load(data))


CODECS: Dict[str, Codec] = {
    codec.name: codec
    for codec in (
        JsonCodec(),
        GraphCodec(),
        NodeListCodec(),
        ReportCodec(),
        ClaimCheckCodec(),
        CodeMappingCodec(),
    )
}


def get_codec(name: str) -> Codec:
    """Look up a codec by name; ``KeyError`` lists the known ones."""
    try:
        return CODECS[name]
    except KeyError:
        raise KeyError(
            f"unknown codec {name!r}; known codecs: {sorted(CODECS)}"
        ) from None
