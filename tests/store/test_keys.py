"""Key derivation: canonical params in, stable content addresses out."""

import hashlib
import json
import random
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.commcc import uniquely_intersecting_inputs
from repro.core.suite import smallest_meaningful_linear_parameters
from repro.gadgets import GadgetParameters, LinearConstruction, QuadraticConstruction
from repro.graphs import WeightedGraph
from repro.graphs.serialize import graph_to_dict
from repro.store import canonical_graph_dict, derive_key, encode_for_key
from repro.store import keys as keys_module


def _triangle(order=("a", "b", "c")):
    graph = WeightedGraph()
    for node in order:
        graph.add_node(node, weight=1.0)
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    graph.add_edge("a", "c")
    return graph


class TestEncodeForKey:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert encode_for_key(value) == value

    def test_dict_key_order_is_canonical(self):
        assert encode_for_key({"a": 1, "b": 2}) == encode_for_key(
            {"b": 2, "a": 1}
        )

    def test_tuple_equals_list(self):
        assert encode_for_key((1, 2, 3)) == encode_for_key([1, 2, 3])

    def test_graph_insertion_order_is_canonical(self):
        one = encode_for_key(_triangle(("a", "b", "c")))
        other = encode_for_key(_triangle(("c", "a", "b")))
        assert one == other
        assert "__graph__" in one

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            encode_for_key(object())


class TestDeriveKey:
    def test_key_is_hex_sha256(self):
        key = derive_key("kind", {"x": 1}, "fp")
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_kind_params_fingerprint_all_matter(self):
        base = derive_key("kind", {"x": 1}, "fp")
        assert derive_key("other", {"x": 1}, "fp") != base
        assert derive_key("kind", {"x": 2}, "fp") != base
        assert derive_key("kind", {"x": 1}, "fp2") != base

    def test_param_dict_order_does_not_matter(self):
        assert derive_key("k", {"a": 1, "b": 2}, "fp") == derive_key(
            "k", {"b": 2, "a": 1}, "fp"
        )

    def test_graph_weight_changes_the_key(self):
        light = _triangle()
        heavy = _triangle()
        heavy.set_weight("a", 5.0)
        assert derive_key("k", {"graph": light}, "fp") != derive_key(
            "k", {"graph": heavy}, "fp"
        )

    def test_graph_edge_changes_the_key(self):
        triangle = _triangle()
        path = WeightedGraph()
        for node in ("a", "b", "c"):
            path.add_node(node, weight=1.0)
        path.add_edge("a", "b")
        path.add_edge("b", "c")
        assert derive_key("k", {"graph": triangle}, "fp") != derive_key(
            "k", {"graph": path}, "fp"
        )


class TestCanonicalGraphDict:
    def test_tuple_nodes_sort_stably(self):
        graph = WeightedGraph()
        graph.add_node(("C", 0, 1, 2), weight=1.0)
        graph.add_node(("A", 0, 1), weight=2.0)
        graph.add_edge(("C", 0, 1, 2), ("A", 0, 1))
        canonical = canonical_graph_dict(graph)
        assert len(canonical["nodes"]) == 2
        assert len(canonical["edges"]) == 1
        again = canonical_graph_dict(graph)
        assert canonical == again


def _mixed_label_graph():
    """Nodes of every label kind the codec accepts, ints through tuples.

    Mixed labels are where the ranking text (default separators) and
    the key blob (compact separators) could order nodes differently.
    """
    weights = {
        0: 1, -3: 2, 7: 1.5, 2.5: 3, -0.25: 1, "a": 2, "b c": 1, "": 4,
        None: 1, True: 5, ("x", 1): 1, ("x", (2, -1)): 2, ("x",): 3,
        (None, 1.5): 1, ("y", ("z", ("w", 0))): 2, (): 1, (-1, "a"): 6,
    }
    graph = WeightedGraph(weights)
    graph.add_edges([
        (0, -3), (0, "a"), (-3, ("x", 1)), (7, 2.5), (2.5, None),
        ("a", "b c"), ("", True), (True, ("x",)), (("x", 1), ("x", (2, -1))),
        ((None, 1.5), ("y", ("z", ("w", 0)))), ((), 0), ((-1, "a"), -0.25),
        (-0.25, "b c"), (None, ("x",)), ((), ("y", ("z", ("w", 0)))),
    ])
    return graph


def _shuffled_copy(graph, shuffler):
    """``graph`` rebuilt in a shuffled node and edge insertion order,
    with each edge added from a randomly chosen endpoint."""
    nodes = list(graph.nodes())
    shuffler.shuffle(nodes)
    edges = [(v, u) if shuffler.random() < 0.5 else (u, v) for u, v in graph.edges()]
    shuffler.shuffle(edges)
    copy = WeightedGraph({node: graph.weight(node) for node in nodes})
    copy.add_edges(edges)
    return copy


def _paper_graphs():
    """Theorem 1 (t = 2..4) and Theorem 2 ((ell, t) = (2, 2), (2, 3))
    fixed graphs, each followed by one seeded ``apply_inputs`` sample."""
    rng = random.Random(12)
    graphs = []
    for t in (2, 3, 4):
        params = smallest_meaningful_linear_parameters(t)
        construction = LinearConstruction(params)
        inputs = uniquely_intersecting_inputs(params.k, params.t, rng=rng)
        graphs += [construction.graph, construction.apply_inputs(inputs)]
    for ell, t in ((2, 2), (2, 3)):
        params = GadgetParameters(ell=ell, alpha=1, t=t)
        construction = QuadraticConstruction(params)
        inputs = uniquely_intersecting_inputs(params.k * params.k, t, rng=rng)
        graphs += [construction.graph, construction.apply_inputs(inputs)]
    return graphs


#: sha256 over the ``derive_key`` results of ``_paper_graphs()`` plus
#: the mixed-label graph, as derived by schema-1 keys.  A change here
#: orphans every on-disk cache entry: bump ``STORE_SCHEMA_VERSION``
#: instead of re-pinning.
PINNED_KEY_DIGEST = "17a7b318c52d688984baaa328b4eda2026ade6637654c877521cea40e7a3a2d7"


class TestKeyBytesArePinned:
    def test_graph_keys_match_the_pinned_digest(self):
        digest = hashlib.sha256()
        for graph in _paper_graphs() + [_mixed_label_graph()]:
            key = derive_key("maxis.solution", {"graph": graph, "kernel": True}, "fp")
            digest.update(key.encode("ascii"))
        assert digest.hexdigest() == PINNED_KEY_DIGEST


def _codec_order(graph):
    flat = graph_to_dict(graph)
    return [entry["id"] for entry in flat["nodes"]], flat["edges"]


class TestCanonicalOrder:
    def test_matches_the_graph_codec(self):
        for graph in _paper_graphs() + [_mixed_label_graph()]:
            canonical = canonical_graph_dict(graph)
            nodes, edges = _codec_order(graph)
            assert [node for node, _weight in canonical["nodes"]] == nodes
            assert canonical["edges"] == edges

    @given(st.randoms(use_true_random=False))
    def test_insertion_order_does_not_change_the_key(self, shuffler):
        figure = LinearConstruction(GadgetParameters(ell=2, alpha=1, t=2))
        for graph in (_mixed_label_graph(), figure.graph):
            shuffled = _shuffled_copy(graph, shuffler)
            assert derive_key("k", {"graph": shuffled}, "fp") == derive_key(
                "k", {"graph": graph}, "fp"
            )


class TestCanonicalWork:
    def test_dumps_each_node_once(self, monkeypatch, linear_fig_t3):
        calls = []

        def counting_dumps(*args, **kwargs):
            calls.append(1)
            return json.dumps(*args, **kwargs)

        monkeypatch.setattr(
            keys_module, "json", types.SimpleNamespace(dumps=counting_dumps)
        )
        graph = linear_fig_t3.graph
        derive_key("k", {"graph": graph}, "fp")
        assert len(calls) <= graph.num_nodes + 1
