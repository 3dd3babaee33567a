"""Differential tests: every MaxIS solver agrees on random graphs.

Hypothesis drives G(n, p) instances with n <= 14 — small enough for the
exponential brute-force enumerator, large enough to exercise the branch
and bound pruning paths.  The oracles cross-check each other:

* ``brute_force_max_weight_independent_set`` enumerates all subsets and
  is the ground truth;
* ``max_weight_independent_set`` (branch and bound) must match it and
  networkx — the four-way matrix
  ``exact == brute force == networkx == total − minVC`` runs on every
  instance;
* ``max_weight_clique`` on the complement graph must match it (an
  independent set is a clique in the complement);
* no approximation may ever beat the optimum.

The adversarial families below aim at the search's soft spots: unions
of cliques (the clique cover is exact), complete bipartite graphs minus
a perfect matching (dense, no clique larger than an edge), paths and
cycles (sparse, long branching chains), and all-equal-weight ties
(every tie-break branch).
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import WeightedGraph, random_graph, union_of_cliques
from repro.maxis import (
    best_greedy,
    brute_force_max_weight_independent_set,
    complement_identity_check,
    is_vertex_cover,
    matching_vertex_cover,
    max_independent_set_weight,
    max_weight_clique,
    max_weight_independent_set,
    min_weight_vertex_cover,
    random_maximal_independent_set,
)


def _networkx_max_weight_is(graph):
    """Optimum weight via ``nx.max_weight_clique`` on the complement."""
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.nodes())
    nx_graph.add_edges_from(graph.edges())
    complement = nx.complement(nx_graph)
    for node, weight in graph.weights().items():
        complement.nodes[node]["weight"] = weight
    return nx.max_weight_clique(complement, weight="weight")[1]


def assert_four_way_agreement(graph):
    """exact == brute force == networkx == total − minVC."""
    exact = max_weight_independent_set(graph)
    brute = brute_force_max_weight_independent_set(graph)
    min_vc = min_weight_vertex_cover(graph).weight
    assert exact.weight == brute.weight == _networkx_max_weight_is(graph)
    assert brute.weight == graph.total_weight() - min_vc
    assert graph.is_independent_set(exact.nodes)


@st.composite
def small_random_graph(draw):
    """A weighted G(n, p) graph small enough to brute-force."""
    num_nodes = draw(st.integers(min_value=0, max_value=14))
    # Tenths keep the strategy space small; 0.0 and 1.0 hit the
    # edgeless / complete extremes.
    edge_probability = draw(st.integers(min_value=0, max_value=10)) / 10
    seed = draw(st.integers(min_value=0, max_value=2**20))
    max_weight = draw(st.sampled_from([1, 3, 9]))
    return random_graph(
        num_nodes,
        edge_probability,
        rng=random.Random(seed),
        weight_range=(1, max_weight),
    )


class TestExactSolversAgree:
    @settings(max_examples=60)
    @given(small_random_graph())
    def test_four_way_matrix_on_random_graphs(self, graph):
        assert_four_way_agreement(graph)

    @settings(max_examples=40)
    @given(small_random_graph())
    def test_clique_on_complement_matches(self, graph):
        optimum = max_independent_set_weight(graph)
        clique = max_weight_clique(graph.complement())
        assert clique.weight == optimum

    @settings(max_examples=40)
    @given(small_random_graph())
    def test_complement_identity(self, graph):
        total, max_is, min_vc = complement_identity_check(graph)
        assert total == max_is + min_vc
        assert total == graph.total_weight()
        cover = min_weight_vertex_cover(graph)
        assert cover.weight == min_vc
        assert is_vertex_cover(graph, cover.nodes)


class TestAdversarialFamilies:
    """The four-way matrix on families aimed at the search's soft spots."""

    @pytest.mark.parametrize("num_cliques,size", [(1, 1), (2, 3), (3, 4), (4, 2)])
    def test_union_of_cliques(self, num_cliques, size):
        groups = [
            [(h, r) for r in range(size)] for h in range(num_cliques)
        ]
        graph = union_of_cliques(groups)
        # Vary weights within each clique so weight ties inside it matter.
        for h in range(num_cliques):
            for r in range(size):
                graph.set_weight((h, r), 1 + (h + r) % 3)
        assert_four_way_agreement(graph)

    @pytest.mark.parametrize("side", [2, 3, 4])
    def test_complete_bipartite_minus_matching(self, side):
        graph = WeightedGraph()
        for i in range(side):
            graph.add_node(("L", i), weight=1 + i)
            graph.add_node(("R", i), weight=side - i)
        for i in range(side):
            for j in range(side):
                if i != j:  # remove the perfect matching (L_i, R_i)
                    graph.add_edge(("L", i), ("R", j))
        assert_four_way_agreement(graph)

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 12])
    def test_paths(self, length):
        graph = WeightedGraph()
        for i in range(length):
            graph.add_node(i, weight=1 + (i * 3) % 5)
        for i in range(length - 1):
            graph.add_edge(i, i + 1)
        assert_four_way_agreement(graph)

    @pytest.mark.parametrize("length", [3, 4, 5, 6, 9, 13])
    def test_cycles(self, length):
        graph = WeightedGraph()
        for i in range(length):
            graph.add_node(i, weight=1 + (i * 7) % 4)
        for i in range(length):
            graph.add_edge(i, (i + 1) % length)
        assert_four_way_agreement(graph)

    @pytest.mark.parametrize("seed", range(8))
    def test_all_equal_weight_ties(self, seed):
        # Uniform weights make every branching order tie on weight, so
        # only the degree tie-break orders the search.
        graph = random_graph(
            12, 0.3, rng=random.Random(seed), weight_range=(1, 1)
        )
        assert_four_way_agreement(graph)


class TestApproximationsNeverBeatOptimum:
    @settings(max_examples=40)
    @given(small_random_graph())
    def test_greedy_bounded_by_optimum(self, graph):
        optimum = max_independent_set_weight(graph)
        greedy = best_greedy(graph)
        assert greedy.weight <= optimum
        assert graph.is_independent_set(greedy.nodes)

    @settings(max_examples=40)
    @given(small_random_graph(), st.integers(min_value=0, max_value=2**16))
    def test_random_maximal_bounded_by_optimum(self, graph, seed):
        optimum = max_independent_set_weight(graph)
        result = random_maximal_independent_set(graph, rng=random.Random(seed))
        assert result.weight <= optimum
        assert graph.is_independent_set(result.nodes)

    @settings(max_examples=30)
    @given(small_random_graph())
    def test_matching_cover_never_below_minimum(self, graph):
        minimum = min_weight_vertex_cover(graph).weight
        approx = matching_vertex_cover(graph)
        assert approx.weight >= minimum
        assert is_vertex_cover(graph, approx.nodes)
