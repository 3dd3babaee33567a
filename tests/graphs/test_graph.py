"""Unit tests for the weighted graph substrate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    DuplicateNodeError,
    EdgeNotFoundError,
    NodeNotFoundError,
    SelfLoopError,
    WeightedGraph,
    edge_key,
)


@pytest.fixture()
def triangle():
    graph = WeightedGraph()
    graph.add_node("a", weight=3)
    graph.add_node("b", weight=1)
    graph.add_node("c", weight=2)
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    graph.add_edge("c", "a")
    return graph


class TestNodes:
    def test_add_node_default_weight(self):
        graph = WeightedGraph()
        graph.add_node("x")
        assert graph.weight("x") == 1

    def test_add_node_custom_weight(self):
        graph = WeightedGraph()
        graph.add_node("x", weight=7)
        assert graph.weight("x") == 7

    def test_add_existing_node_updates_weight(self):
        graph = WeightedGraph()
        graph.add_node("x", weight=1)
        graph.add_node("x", weight=5)
        assert graph.weight("x") == 5
        assert graph.num_nodes == 1

    def test_add_existing_node_exist_ok_false_raises(self):
        graph = WeightedGraph()
        graph.add_node("x")
        with pytest.raises(DuplicateNodeError):
            graph.add_node("x", exist_ok=False)

    def test_contains(self, triangle):
        assert "a" in triangle
        assert "z" not in triangle

    def test_len_and_num_nodes(self, triangle):
        assert len(triangle) == 3
        assert triangle.num_nodes == 3

    def test_remove_node_removes_incident_edges(self, triangle):
        triangle.remove_node("a")
        assert "a" not in triangle
        assert triangle.num_edges == 1
        assert not triangle.has_edge("b", "a")

    def test_remove_missing_node_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.remove_node("zz")

    def test_constructor_from_mapping(self):
        graph = WeightedGraph(nodes={"a": 2, "b": 5})
        assert graph.weight("a") == 2
        assert graph.weight("b") == 5

    def test_constructor_from_iterable_and_edges(self):
        graph = WeightedGraph(nodes=["a", "b"], edges=[("a", "b"), ("b", "c")])
        assert graph.num_nodes == 3
        assert graph.has_edge("a", "b")
        assert graph.weight("c") == 1

    def test_node_order_is_insertion_order(self):
        graph = WeightedGraph(nodes=["c", "a", "b"])
        assert graph.node_list() == ["c", "a", "b"]

    def test_tuple_nodes(self):
        graph = WeightedGraph()
        graph.add_edge(("A", 0, 1), ("C", 0, 2, 1))
        assert graph.has_edge(("C", 0, 2, 1), ("A", 0, 1))


class TestWeights:
    def test_weight_of_missing_node_raises(self):
        graph = WeightedGraph()
        with pytest.raises(NodeNotFoundError):
            graph.weight("nope")

    def test_set_weight(self, triangle):
        triangle_copy = triangle.copy()
        triangle_copy.set_weight("a", 42)
        assert triangle_copy.weight("a") == 42

    def test_set_weight_missing_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.set_weight("zz", 1)

    def test_total_weight_all(self, triangle):
        assert triangle.total_weight() == 6

    def test_total_weight_subset(self, triangle):
        assert triangle.total_weight(["a", "c"]) == 5

    def test_total_weight_empty_subset(self, triangle):
        assert triangle.total_weight([]) == 0

    def test_weights_returns_copy(self, triangle):
        weights = triangle.weights()
        weights["a"] = 99
        assert triangle.weight("a") == 3


class TestEdges:
    def test_add_edge_creates_endpoints(self):
        graph = WeightedGraph()
        graph.add_edge("u", "v")
        assert graph.num_nodes == 2
        assert graph.has_edge("u", "v")
        assert graph.has_edge("v", "u")

    def test_self_loop_rejected(self):
        graph = WeightedGraph()
        with pytest.raises(SelfLoopError):
            graph.add_edge("u", "u")

    def test_parallel_edge_is_noop(self):
        graph = WeightedGraph(edges=[("u", "v"), ("u", "v")])
        assert graph.num_edges == 1

    def test_remove_edge(self, triangle):
        triangle_copy = triangle.copy()
        triangle_copy.remove_edge("a", "b")
        assert not triangle_copy.has_edge("a", "b")
        assert triangle_copy.num_edges == 2

    def test_remove_missing_edge_raises(self, triangle):
        graph = triangle.copy()
        graph.remove_edge("a", "b")
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge("a", "b")

    def test_remove_edge_missing_endpoint_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.remove_edge("a", "zz")

    def test_edges_iterates_each_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        assert len({edge_key(u, v) for u, v in edges}) == 3

    def test_edge_set(self, triangle):
        assert edge_key("a", "b") in triangle.edge_set()

    def test_neighbors(self, triangle):
        assert triangle.neighbors("a") == {"b", "c"}

    def test_neighbors_returns_copy(self, triangle):
        neighbors = triangle.neighbors("a")
        neighbors.add("zz")
        assert triangle.neighbors("a") == {"b", "c"}

    def test_degree(self, triangle):
        assert triangle.degree("a") == 2

    def test_max_degree(self, triangle):
        assert triangle.max_degree() == 2

    def test_max_degree_empty(self):
        assert WeightedGraph().max_degree() == 0


class TestPredicates:
    def test_independent_set_empty_is_independent(self, triangle):
        assert triangle.is_independent_set([])

    def test_independent_set_single(self, triangle):
        assert triangle.is_independent_set(["a"])

    def test_independent_set_adjacent_pair_rejected(self, triangle):
        assert not triangle.is_independent_set(["a", "b"])

    def test_independent_set_unknown_node_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.is_independent_set(["zz"])

    def test_independent_set_nonadjacent(self):
        graph = WeightedGraph(edges=[("a", "b"), ("c", "d")])
        assert graph.is_independent_set(["a", "c"])

    def test_is_clique(self, triangle):
        assert triangle.is_clique(["a", "b", "c"])

    def test_is_clique_missing_edge(self):
        graph = WeightedGraph(edges=[("a", "b"), ("b", "c")])
        assert not graph.is_clique(["a", "b", "c"])

    def test_is_connected(self, triangle):
        assert triangle.is_connected()

    def test_disconnected(self):
        graph = WeightedGraph(nodes=["a", "b"])
        assert not graph.is_connected()

    def test_empty_graph_connected(self):
        assert WeightedGraph().is_connected()

    def test_connected_components(self):
        graph = WeightedGraph(edges=[("a", "b")])
        graph.add_node("c")
        components = graph.connected_components()
        assert sorted(sorted(map(str, comp)) for comp in components) == [
            ["a", "b"],
            ["c"],
        ]

    def test_diameter_triangle(self, triangle):
        assert triangle.diameter() == 1

    def test_diameter_path(self):
        graph = WeightedGraph(edges=[("a", "b"), ("b", "c"), ("c", "d")])
        assert graph.diameter() == 3

    def test_diameter_disconnected_raises(self):
        graph = WeightedGraph(nodes=["a", "b"])
        with pytest.raises(ValueError):
            graph.diameter()

    def test_bfs_distances(self):
        graph = WeightedGraph(edges=[("a", "b"), ("b", "c")])
        assert graph.bfs_distances("a") == {"a": 0, "b": 1, "c": 2}

    def test_bfs_missing_source_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.bfs_distances("zz")


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_edge("a", "b")
        assert triangle.has_edge("a", "b")

    def test_copy_preserves_weights(self, triangle):
        assert triangle.copy().weights() == triangle.weights()

    def test_subgraph(self, triangle):
        sub = triangle.subgraph(["a", "b"])
        assert sub.num_nodes == 2
        assert sub.has_edge("a", "b")
        assert sub.weight("a") == 3

    def test_subgraph_missing_node_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.subgraph(["a", "zz"])

    def test_complement_of_triangle_is_empty(self, triangle):
        assert triangle.complement().num_edges == 0

    def test_complement_preserves_weights(self, triangle):
        assert triangle.complement().weight("a") == 3

    def test_complement_involution(self):
        graph = WeightedGraph(edges=[("a", "b"), ("c", "d"), ("a", "c")])
        assert graph.complement().complement() == graph

    def test_relabeled(self, triangle):
        renamed = triangle.relabeled({"a": "x"})
        assert renamed.has_edge("x", "b")
        assert renamed.weight("x") == 3
        assert "a" not in renamed

    def test_relabeled_non_injective_raises(self, triangle):
        with pytest.raises(ValueError):
            triangle.relabeled({"a": "b"})

    def test_disjoint_union(self):
        left = WeightedGraph(edges=[("a", "b")])
        right = WeightedGraph(edges=[("c", "d")])
        union = left.disjoint_union(right)
        assert union.num_nodes == 4
        assert union.num_edges == 2

    def test_disjoint_union_overlap_raises(self):
        left = WeightedGraph(nodes=["a"])
        right = WeightedGraph(nodes=["a"])
        with pytest.raises(ValueError):
            left.disjoint_union(right)

    def test_equality(self, triangle):
        assert triangle == triangle.copy()

    def test_inequality_on_weights(self, triangle):
        other = triangle.copy()
        other.set_weight("a", 100)
        assert triangle != other

    def test_inequality_on_edges(self, triangle):
        other = triangle.copy()
        other.remove_edge("a", "b")
        assert triangle != other

    def test_structural_signature(self, triangle):
        assert triangle.structural_signature() == (3, 3, 6)

    def test_to_index_form_roundtrip(self, triangle):
        nodes, weights, masks = triangle.to_index_form()
        assert len(nodes) == 3
        index = {node: i for i, node in enumerate(nodes)}
        for u, v in triangle.edges():
            assert masks[index[u]] >> index[v] & 1
            assert masks[index[v]] >> index[u] & 1
        assert weights[index["a"]] == 3

    def test_to_index_form_with_order(self, triangle):
        nodes, weights, masks = triangle.to_index_form(order=["c", "a", "b"])
        assert nodes == ["c", "a", "b"]
        assert weights == [2, 3, 1]
        # Triangle: every pair adjacent; masks reflect the given order.
        assert masks == [0b110, 0b101, 0b011]

    @pytest.mark.parametrize(
        "order",
        [["a", "b"], ["a", "b", "c", "d"], ["a", "b", "x"], ["a", "b", "b"]],
    )
    def test_to_index_form_rejects_non_permutation(self, triangle, order):
        with pytest.raises(ValueError):
            triangle.to_index_form(order=order)


class TestDegreeBuckets:
    def test_nodes_by_degree_ascending_keys(self):
        graph = WeightedGraph(nodes={"iso": 1, "leaf": 1, "hub": 1, "mid": 1})
        graph.add_edge("leaf", "hub")
        graph.add_edge("hub", "mid")
        buckets = graph.nodes_by_degree()
        assert list(buckets) == [0, 1, 2]
        assert buckets[0] == ["iso"]
        assert buckets[2] == ["hub"]

    def test_nodes_by_degree_insertion_order_within_bucket(self):
        graph = WeightedGraph(nodes={n: 1 for n in "dcba"})
        buckets = graph.nodes_by_degree()
        assert buckets[0] == ["d", "c", "b", "a"]

    def test_nodes_by_degree_empty(self):
        assert WeightedGraph().nodes_by_degree() == {}


class TestDerivedCache:
    def test_solver_index_form_cached(self, triangle):
        assert triangle.solver_index_form() is triangle.solver_index_form()

    def test_solver_index_form_branching_order(self, triangle):
        order, weights, masks, index = triangle.solver_index_form()
        assert order == ["a", "c", "b"]  # heaviest first: 3, 2, 1
        assert weights == [3, 2, 1]
        assert [index[n] for n in order] == [0, 1, 2]
        assert masks == [0b110, 0b101, 0b011]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_node("z"),
            lambda g: g.remove_node("a"),
            lambda g: g.set_weight("b", 9),
            lambda g: g.add_edge("a", "d"),
            lambda g: g.remove_edge("a", "b"),
        ],
    )
    def test_every_mutator_invalidates_cache(self, triangle, mutate):
        triangle.add_node("d")  # spare node so add_edge has a target
        first = triangle.solver_index_form()
        mutate(triangle)
        assert triangle.solver_index_form() is not first

    def test_derived_cache_entries_survive_reads(self, triangle):
        triangle.derived_cache()["test.entry"] = "payload"
        triangle.degree("a")
        triangle.is_independent_set(["a"])
        assert triangle.derived_cache()["test.entry"] == "payload"

    def test_pickle_drops_derived_cache(self, triangle):
        import pickle

        triangle.derived_cache()["test.entry"] = object()
        clone = pickle.loads(pickle.dumps(triangle))
        assert clone == triangle
        assert "test.entry" not in clone.derived_cache()


@st.composite
def tied_weighted_graph(draw):
    """A small weighted graph with many tied weights and degrees.

    Nodes are inserted in a shuffled order and edges in a random order
    and orientation, and a few nodes are removed again, so insertion
    order and neighbour-set layout differ from the node labels.
    """
    num_nodes = draw(st.integers(min_value=0, max_value=14))
    edge_probability = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**20)))
    labels = list(range(num_nodes))
    rng.shuffle(labels)
    graph = WeightedGraph()
    for node in labels:
        graph.add_node(node, weight=rng.choice([1, 1, 2, 3]))
    pairs = [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u in range(num_nodes)
        for v in range(u + 1, num_nodes)
        if rng.random() < edge_probability
    ]
    rng.shuffle(pairs)
    graph.add_edges(pairs)
    if num_nodes and rng.random() < 0.3:
        for node in rng.sample(labels, k=min(2, num_nodes)):
            graph.remove_node(node)
    return graph


def _mutate(graph, data):
    """Apply one drawn mutator (add/remove edge, set weight, remove node)."""
    nodes = graph.node_list()
    edges = list(graph.edges())
    choices = ["add_edge"]
    if edges:
        choices.append("remove_edge")
    if nodes:
        choices += ["set_weight", "remove_node"]
    kind = data.draw(st.sampled_from(choices))
    if kind == "add_edge":
        # One endpoint may be new, so add_edge also creates a node.
        u = data.draw(st.sampled_from(nodes + ["new"]))
        v = data.draw(st.sampled_from([n for n in nodes + ["fresh"] if n != u]))
        graph.add_edge(u, v)
    elif kind == "remove_edge":
        graph.remove_edge(*data.draw(st.sampled_from(edges)))
    elif kind == "set_weight":
        graph.set_weight(data.draw(st.sampled_from(nodes)), data.draw(st.integers(0, 4)))
    else:
        graph.remove_node(data.draw(st.sampled_from(nodes)))


def reference_solver_index_form(graph):
    """The solver index form built by a per-neighbour OR loop.

    Test-only reference for :meth:`WeightedGraph.solver_index_form`:
    the same branching order, each mask accumulated bit by bit.
    """
    wmap = graph.weights()
    order = sorted(graph.nodes(), key=lambda node: (-wmap[node], -graph.degree(node)))
    index = {node: i for i, node in enumerate(order)}
    masks = []
    for node in order:
        mask = 0
        for neighbor in graph.neighbors(node):
            mask |= 1 << index[neighbor]
        masks.append(mask)
    return order, [wmap[node] for node in order], masks, index


class TestCopyProperties:
    @settings(max_examples=150)
    @given(tied_weighted_graph())
    def test_copy_matches_source(self, graph):
        clone = graph.copy()
        assert clone == graph
        assert list(clone.nodes()) == list(graph.nodes())
        assert list(clone.weights()) == list(graph.weights())
        assert clone.solver_index_form() == graph.solver_index_form()

    @settings(max_examples=150)
    @given(tied_weighted_graph(), st.data())
    def test_mutating_copy_leaves_source(self, graph, data):
        form = graph.solver_index_form()
        nodes, edges, weights = graph.node_list(), graph.edge_set(), graph.weights()
        clone = graph.copy()
        _mutate(clone, data)
        assert graph.node_list() == nodes
        assert graph.edge_set() == edges
        assert graph.weights() == weights
        assert graph.solver_index_form() is form
        assert form == reference_solver_index_form(graph)


class TestSolverIndexFormProperties:
    @settings(max_examples=150)
    @given(tied_weighted_graph(), st.data())
    def test_matches_or_loop_reference(self, graph, data):
        assert graph.solver_index_form() == reference_solver_index_form(graph)
        _mutate(graph, data)
        assert graph.solver_index_form() == reference_solver_index_form(graph)
