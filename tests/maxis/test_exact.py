"""Tests for the exact branch-and-bound MaxIS solver."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commcc import pairwise_disjoint_inputs, uniquely_intersecting_inputs
from repro.gadgets import (
    GadgetParameters,
    LinearMaxISFamily,
    QuadraticMaxISFamily,
    smallest_meaningful_linear_parameters,
)
from repro.graphs import WeightedGraph, clique, random_graph
from repro.maxis import (
    BranchAndBoundStats,
    brute_force_max_weight_independent_set,
    max_independent_set_weight,
    max_weight_independent_set,
)


class TestSmallGraphs:
    def test_empty_graph(self):
        result = max_weight_independent_set(WeightedGraph())
        assert result.weight == 0
        assert len(result) == 0

    def test_single_node(self):
        graph = WeightedGraph(nodes={"a": 5})
        result = max_weight_independent_set(graph)
        assert result.nodes == frozenset({"a"})
        assert result.weight == 5

    def test_edgeless_takes_everything(self):
        graph = WeightedGraph(nodes={chr(97 + i): i + 1 for i in range(5)})
        result = max_weight_independent_set(graph)
        assert result.weight == 15

    def test_single_edge_takes_heavier(self):
        graph = WeightedGraph(nodes={"a": 2, "b": 7})
        graph.add_edge("a", "b")
        result = max_weight_independent_set(graph)
        assert result.nodes == frozenset({"b"})

    def test_clique_takes_heaviest(self):
        graph = clique(["a", "b", "c", "d"])
        graph.set_weight("c", 10)
        result = max_weight_independent_set(graph)
        assert result.nodes == frozenset({"c"})

    def test_path_weighted(self):
        # Path a-b-c with weights 1, 3, 1: optimum is b (3).
        graph = WeightedGraph(nodes={"a": 1, "b": 3, "c": 1})
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        assert max_weight_independent_set(graph).weight == 3

    def test_path_unweighted(self):
        # Path of 5 nodes: optimum size 3 (alternating).
        graph = WeightedGraph(edges=[(i, i + 1) for i in range(4)])
        assert max_weight_independent_set(graph).weight == 3

    def test_cycle5(self):
        graph = WeightedGraph(edges=[(i, (i + 1) % 5) for i in range(5)])
        assert max_weight_independent_set(graph).weight == 2

    def test_bipartite_takes_heavier_side(self):
        graph = WeightedGraph()
        for i in range(3):
            graph.add_node(("L", i), weight=1)
            graph.add_node(("R", i), weight=5)
        for i in range(3):
            for j in range(3):
                graph.add_edge(("L", i), ("R", j))
        assert max_weight_independent_set(graph).weight == 15

    def test_negative_weight_rejected(self):
        graph = WeightedGraph(nodes={"a": -1})
        with pytest.raises(ValueError):
            max_weight_independent_set(graph)

    @pytest.mark.parametrize("kernel", [True, False])
    def test_negative_weight_rejected_before_indexing(self, kernel):
        """Weight validation must precede index-form construction.

        The tripwire subclass makes any attempt to build an index form
        explode; the solver must still raise ValueError (not
        RuntimeError) on a negatively-weighted graph, proving the
        validation runs first on both the kernel and raw paths.
        """

        class TripwireGraph(WeightedGraph):
            __slots__ = ()

            def to_index_form(self, order=None):
                raise RuntimeError("index form built before validation")

            def solver_index_form(self):
                raise RuntimeError("index form built before validation")

        graph = TripwireGraph(nodes={"a": 1, "b": -2})
        graph.add_edge("a", "b")
        with pytest.raises(ValueError):
            max_weight_independent_set(graph, kernel=kernel)

    def test_weight_helper(self):
        graph = clique(["a", "b"], weight=4)
        assert max_independent_set_weight(graph) == 4

    def test_stats_populated(self):
        # With the kernel on, this instance may reduce to nothing and
        # expand zero nodes; the raw path must still count expansions.
        graph = random_graph(12, 0.4, rng=random.Random(0))
        stats = BranchAndBoundStats()
        max_weight_independent_set(graph, stats=stats, kernel=False)
        assert stats.nodes_expanded > 0
        kernel_stats = BranchAndBoundStats()
        max_weight_independent_set(graph, stats=kernel_stats, kernel=True)
        assert kernel_stats.nodes_expanded <= stats.nodes_expanded

    def test_result_is_independent(self):
        graph = random_graph(15, 0.5, rng=random.Random(1), weight_range=(1, 9))
        result = max_weight_independent_set(graph)
        assert graph.is_independent_set(result.nodes)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_weighted_graphs(self, seed):
        rng = random.Random(seed)
        graph = random_graph(
            rng.randint(5, 16),
            rng.uniform(0.1, 0.8),
            rng=rng,
            weight_range=(1, 8),
        )
        fast = max_weight_independent_set(graph).weight
        slow = brute_force_max_weight_independent_set(graph).weight
        assert fast == slow

    @pytest.mark.parametrize("seed", range(6))
    def test_unweighted_against_networkx_complement_clique(self, seed):
        rng = random.Random(seed + 500)
        graph = random_graph(14, 0.5, rng=rng)
        ours = max_weight_independent_set(graph).weight
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(graph.nodes())
        nx_graph.add_edges_from(graph.edges())
        their_clique, their_weight = nx.max_weight_clique(
            nx.complement(nx_graph), weight=None
        )
        assert ours == their_weight == len(their_clique)


def _networkx_max_weight_is(graph):
    """Optimum weight via ``nx.max_weight_clique`` on the complement.

    ``nx.complement`` keeps nodes and drops their attributes, so the
    weights are copied onto the complement before the clique search.
    """
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.nodes())
    nx_graph.add_edges_from(graph.edges())
    complement = nx.complement(nx_graph)
    for node, weight in graph.weights().items():
        complement.nodes[node]["weight"] = weight
    clique_nodes, weight = nx.max_weight_clique(complement, weight="weight")
    assert weight == sum(graph.weight(node) for node in clique_nodes)
    return weight


def _gadget_instances():
    """Seed-0 instances of both promise sides at the feasible sweep points."""
    points = [
        ("theorem1", smallest_meaningful_linear_parameters(t)) for t in (2, 3, 4)
    ] + [
        ("theorem2", GadgetParameters(ell=ell, alpha=1, t=t))
        for ell, t in ((2, 2), (3, 2), (2, 3))
    ]
    sides = [
        ("intersecting", uniquely_intersecting_inputs),
        ("disjoint", pairwise_disjoint_inputs),
    ]
    for theorem, params in points:
        for side, sampler in sides:
            yield pytest.param(
                theorem,
                params,
                sampler,
                id=f"{theorem}-ell{params.ell}-t{params.t}-{side}",
            )


class TestWeightedNetworkxOracle:
    """The real Theorem 1 and 2 gadget families against an independent solver."""

    @pytest.mark.parametrize("theorem,params,sampler", list(_gadget_instances()))
    def test_gadget_instance_matches_networkx(self, theorem, params, sampler):
        if theorem == "theorem1":
            family, length = LinearMaxISFamily(params), params.k
        else:
            family, length = QuadraticMaxISFamily(params), params.k * params.k
        graph = family.build(sampler(length, params.t, rng=random.Random(0)))
        expected = _networkx_max_weight_is(graph)
        for kernel in (True, False):
            result = max_weight_independent_set(graph, kernel=kernel)
            assert result.weight == expected, f"kernel={kernel}"
            assert graph.is_independent_set(result.nodes)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_weighted_graphs_match_networkx(self, seed):
        rng = random.Random(seed + 700)
        graph = random_graph(16, 0.4, rng=rng, weight_range=(1, 9))
        expected = _networkx_max_weight_is(graph)
        for kernel in (True, False):
            assert max_weight_independent_set(graph, kernel=kernel).weight == expected


class TestDenseCliqueStructured:
    def test_union_of_cliques_takes_one_per_clique(self):
        from repro.graphs import union_of_cliques

        groups = [[(h, r) for r in range(4)] for h in range(5)]
        graph = union_of_cliques(groups)
        assert max_weight_independent_set(graph).weight == 5

    def test_gadget_sized_instance_is_fast(self, linear_meaningful):
        # 90 dense nodes; must finish well under a second.
        result = max_weight_independent_set(linear_meaningful.graph)
        assert result.weight > 0


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 12),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)
def test_hypothesis_matches_brute_force(n, p, seed):
    graph = random_graph(n, p, rng=random.Random(seed), weight_range=(1, 5))
    fast = max_weight_independent_set(graph).weight
    slow = brute_force_max_weight_independent_set(graph).weight
    assert fast == slow
