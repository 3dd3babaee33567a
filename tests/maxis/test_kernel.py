"""Unit tests for each kernelization rule and the fold-state API.

No solver calls :func:`kernelize`; these tests solve the reduced graph
themselves and lift the witness back (:func:`kernel_solve`).
"""

import pickle

import pytest

from repro.graphs import WeightedGraph, clique, union_of_cliques
from repro.maxis import (
    FoldedVertex,
    IndependentSetResult,
    Kernelization,
    brute_force_max_weight_independent_set,
    kernelize,
    max_weight_independent_set,
)


def kernel_solve(graph):
    """Kernelize, solve the reduced graph exactly, lift the witness back."""
    kern = kernelize(graph)
    reduced = max_weight_independent_set(kern.reduced_graph())
    return IndependentSetResult(graph, kern.lift(reduced.nodes))


def _path(weights):
    graph = WeightedGraph()
    for i, w in enumerate(weights):
        graph.add_node(i, weight=w)
    for i in range(len(weights) - 1):
        graph.add_edge(i, i + 1)
    return graph


def _cube():
    """The 3-cube Q3: 3-regular, twin-free, subset-free — irreducible."""
    graph = WeightedGraph(nodes={i: 1 for i in range(8)})
    for u in range(8):
        for bit in (1, 2, 4):
            if u < u ^ bit:
                graph.add_edge(u, u ^ bit)
    return graph


class TestDegreeRules:
    def test_isolated_nodes_included(self):
        graph = WeightedGraph(nodes={"a": 3, "b": 0, "c": 7})
        kern = kernelize(graph)
        assert kern.num_reduced_nodes == 0
        assert kern.stats.degree0_includes == 3
        assert sorted(kern.lift([])) == ["a", "b", "c"]

    def test_degree_one_include_when_heavier(self):
        graph = WeightedGraph(nodes={"leaf": 5, "hub": 2})
        graph.add_edge("leaf", "hub")
        kern = kernelize(graph)
        assert kern.num_reduced_nodes == 0
        assert kern.stats.degree1_includes >= 1
        assert kern.lift([]) == ["leaf"]

    def test_degree_one_fold_when_lighter(self):
        # leaf(1) - hub(5) - other(1): fold moves the leaf's weight into
        # the hub; kernel solves to {hub}, lift keeps {hub} (leaf's
        # neighbor taken => leaf stays out).
        graph = _path([1, 5, 1])
        result = kernel_solve(graph)
        assert result.weight == 5
        assert result.nodes == frozenset({1})

    def test_degree_one_fold_lift_adds_leaf_back(self):
        # leaf(1) - hub(2): folding gives hub weight 1; whichever way the
        # kernel resolves, the lifted optimum is weight 2.
        graph = WeightedGraph(nodes={"leaf": 1, "hub": 2})
        graph.add_edge("leaf", "hub")
        result = kernel_solve(graph)
        assert result.weight == 2
        assert result.nodes == frozenset({"hub"})

    def test_degree_two_include_dominating_center(self):
        # v(9) bridges two triangles via u and x (non-adjacent, degree
        # 3, so the degree-1 rules can't consume them first); w(v) >=
        # w(u) + w(x) takes v outright.
        graph = WeightedGraph(
            nodes={"v": 9, "u": 1, "x": 1, "p": 1, "q": 1, "r": 1, "s": 1}
        )
        for edge in [
            ("v", "u"), ("v", "x"),
            ("u", "p"), ("u", "q"), ("p", "q"),
            ("x", "r"), ("x", "s"), ("r", "s"),
        ]:
            graph.add_edge(*edge)
        kern = kernelize(graph)
        assert kern.stats.degree2_includes >= 1
        assert kernel_solve(graph).weight == 11

    def test_degree_two_fold_creates_vertex(self):
        # A 5-cycle of equal weights has every vertex at degree 2 and no
        # domination: only the degree-2 fold can reduce it.
        graph = WeightedGraph(nodes={i: 2 for i in range(5)})
        for i in range(5):
            graph.add_edge(i, (i + 1) % 5)
        kern = kernelize(graph)
        assert kern.stats.degree2_folds >= 1
        assert kern.stats.created_vertices >= 1
        result = kernel_solve(graph)
        assert result.weight == 4
        assert graph.is_independent_set(result.nodes)

    def test_triangle_left_to_domination(self):
        # An isolated triangle: the degree-2 rule declines (neighbors
        # adjacent), but twins collapse it to the heaviest vertex.
        graph = clique(["a", "b", "c"])
        graph.set_weight("b", 4)
        kern = kernelize(graph)
        assert kern.num_reduced_nodes == 0
        assert kernel_solve(graph).nodes == (
            frozenset({"b"})
        )


class TestDomination:
    def test_union_of_cliques_collapses_completely(self):
        groups = [[(h, r) for r in range(4)] for h in range(5)]
        graph = union_of_cliques(groups)
        kern = kernelize(graph)
        assert kern.num_reduced_nodes == 0
        assert kern.stats.dominated_removed == 15  # 3 twins per clique
        assert kernel_solve(graph).weight == 5

    def test_twins_keep_heaviest(self):
        graph = clique(["light", "heavy", "mid"])
        graph.set_weight("light", 1)
        graph.set_weight("heavy", 9)
        graph.set_weight("mid", 5)
        result = kernel_solve(graph)
        assert result.nodes == frozenset({"heavy"})

    def test_strict_subset_domination_fires(self):
        # The 3-cube plus a vertex z covering N[0] and more: N[0] is a
        # strict subset of N[z] with equal weights, so z is removed by
        # the subset tier — the cube has no twins and no low-degree
        # vertices, so no other rule can claim the removal.
        graph = _cube()
        graph.add_node("z", weight=1)
        for neighbor in (0, 1, 2, 4, 7):
            graph.add_edge("z", neighbor)
        kern = kernelize(graph)
        assert kern.stats.dominated_removed == 1
        assert kern.num_reduced_nodes == 8  # the untouched cube
        result = kernel_solve(graph)
        brute = brute_force_max_weight_independent_set(graph)
        assert result.weight == brute.weight


class TestFoldedVertex:
    def test_identity_and_hash(self):
        assert FoldedVertex(3) == FoldedVertex(3)
        assert FoldedVertex(3) != FoldedVertex(4)
        assert hash(FoldedVertex(3)) == hash(FoldedVertex(3))
        assert FoldedVertex(0) != 0
        assert FoldedVertex(0) != (FoldedVertex, 0)
        assert repr(FoldedVertex(7)) == "FoldedVertex(7)"

    def test_never_escapes_into_witness(self):
        graph = WeightedGraph(nodes={i: 2 for i in range(5)})
        for i in range(5):
            graph.add_edge(i, (i + 1) % 5)
        result = kernel_solve(graph)
        assert all(not isinstance(n, FoldedVertex) for n in result.nodes)


class TestKernelizationState:
    def test_identity_kernel_shares_cached_form(self):
        # The cube is irreducible: no journal entries, and the reduced
        # form IS the graph's own cached index form (zero copies).
        graph = _cube()
        kern = kernelize(graph)
        assert kern.is_identity
        assert kern.stats.removed_nodes == 0
        labels, weights, masks = kern.reduced_index_form()
        cached_labels, cached_weights, cached_masks, _ = (
            graph.solver_index_form()
        )
        assert labels is cached_labels
        assert weights is cached_weights
        assert masks is cached_masks

    def test_kernelization_cached_per_graph(self):
        graph = _path([1, 5, 1])
        assert kernelize(graph) is kernelize(graph)

    def test_mutation_invalidates_cached_kernelization(self):
        graph = _path([1, 5, 1])
        first = kernelize(graph)
        graph.set_weight(0, 7)
        second = kernelize(graph)
        assert second is not first
        assert kernel_solve(graph).weight == (
            brute_force_max_weight_independent_set(graph).weight
        )

    def test_stats_as_dict_shape(self):
        stats = kernelize(_path([1, 5, 1, 5, 1])).stats
        record = stats.as_dict()
        assert record["initial_nodes"] == 5
        assert record["removed_nodes"] == stats.removed_nodes
        assert record["folds"] == stats.folds
        assert "KernelStats" in repr(stats)

    def test_negative_weight_rejected(self):
        graph = WeightedGraph(nodes={"a": -1})
        with pytest.raises(ValueError):
            kernelize(graph)

    def test_reduced_graph_matches_reduced_form(self):
        graph = _path([2, 1, 2, 1, 2, 9])
        kern = kernelize(graph)
        reduced = kern.reduced_graph()
        labels, weights, _ = kern.reduced_index_form()
        assert sorted(map(str, reduced.nodes())) == sorted(map(str, labels))
        assert sorted(reduced.weights().values()) == sorted(weights)

    def test_revert_after_folds(self):
        graph = _path([1, 2, 3, 2, 1])
        assert kernelize(graph).revert() == graph

    def test_pickle_drops_graph_side_cache(self):
        graph = _path([1, 5, 1])
        kernelize(graph)
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph


class TestObservability:
    def test_counters_emitted_on_fresh_kernelization(self):
        from repro import obs

        with obs.recording() as recorder:
            graph = _path([1, 5, 1, 5, 1])
            kernelize(graph)
            kernelize(graph)  # cache hit
        assert recorder.counters.get("maxis.kernel.reductions") == 1
        assert recorder.counters.get("maxis.kernel.removed_nodes") == 5
        assert recorder.counters.get("maxis.kernel.reuses") == 1
        assert recorder.counters.get("maxis.kernel.folds", 0) >= 1
