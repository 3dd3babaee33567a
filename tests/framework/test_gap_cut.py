"""Tests for gap predicates and cut computation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framework import (
    GapPredicate,
    GapViolation,
    cut_edges,
    cut_size,
    node_membership,
    pairwise_cut_sizes,
    per_round_cut_traffic,
)
from repro.graphs import WeightedGraph, clique


class TestGapPredicate:
    def _graph_with_opt(self, weight):
        graph = WeightedGraph(nodes={"a": weight})
        return graph

    def test_low_side(self):
        gap = GapPredicate(low_threshold=5, high_threshold=10)
        assert gap.evaluate(self._graph_with_opt(4)) is True

    def test_high_side(self):
        gap = GapPredicate(low_threshold=5, high_threshold=10)
        assert gap.evaluate(self._graph_with_opt(12)) is False

    def test_boundaries_inclusive(self):
        gap = GapPredicate(low_threshold=5, high_threshold=10)
        assert gap.evaluate(self._graph_with_opt(5)) is True
        assert gap.evaluate(self._graph_with_opt(10)) is False

    def test_strict_raises_inside_gap(self):
        gap = GapPredicate(low_threshold=5, high_threshold=10)
        with pytest.raises(GapViolation):
            gap.evaluate(self._graph_with_opt(7))

    def test_non_strict_rounds_to_nearest(self):
        gap = GapPredicate(low_threshold=5, high_threshold=10, strict=False)
        assert gap.evaluate(self._graph_with_opt(6)) is True
        assert gap.evaluate(self._graph_with_opt(9)) is False

    def test_gamma_and_meaningful(self):
        gap = GapPredicate(low_threshold=5, high_threshold=10)
        assert gap.gamma == 0.5
        assert gap.is_meaningful
        assert not GapPredicate(low_threshold=10, high_threshold=10).is_meaningful

    def test_custom_solver(self):
        gap = GapPredicate(low_threshold=1, high_threshold=2, solver=lambda g: 0)
        assert gap.evaluate(WeightedGraph()) is True

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            GapPredicate(low_threshold=-1, high_threshold=5)
        with pytest.raises(ValueError):
            GapPredicate(low_threshold=1, high_threshold=0)


class TestCut:
    def test_membership(self):
        membership = node_membership([{"a"}, {"b", "c"}])
        assert membership == {"a": 0, "b": 1, "c": 1}

    def test_membership_overlap_raises(self):
        with pytest.raises(ValueError):
            node_membership([{"a"}, {"a"}])

    def test_cut_edges(self):
        graph = WeightedGraph(edges=[("a", "b"), ("a", "c"), ("b", "c")])
        crossing = cut_edges(graph, [{"a"}, {"b", "c"}])
        assert len(crossing) == 2

    def test_cut_size_zero_within_part(self):
        graph = clique(["a", "b", "c"])
        assert cut_size(graph, [{"a", "b", "c"}]) == 0

    def test_uncovered_endpoint_raises(self):
        graph = WeightedGraph(edges=[("a", "b")])
        with pytest.raises(ValueError):
            cut_edges(graph, [{"a"}])

    @pytest.mark.parametrize("count", [cut_edges, cut_size])
    def test_node_in_two_parts_raises(self, count):
        graph = WeightedGraph(edges=[("a", "b")])
        with pytest.raises(ValueError):
            count(graph, [{"a", "b"}, {"b"}])

    @pytest.mark.parametrize("count", [cut_edges, cut_size])
    def test_uncovered_endpoint_raises_for_both(self, count):
        graph = WeightedGraph(nodes=["lonely"], edges=[("a", "b"), ("b", "c")])
        with pytest.raises(ValueError):
            count(graph, [{"a", "lonely"}, {"c"}])

    def test_uncovered_isolated_node_is_ignored(self):
        graph = WeightedGraph(nodes=["lonely"], edges=[("a", "b")])
        assert cut_size(graph, [{"a"}, {"b"}]) == 1

    @settings(max_examples=150)
    @given(
        num_nodes=st.integers(0, 12),
        num_parts=st.integers(1, 4),
        num_ghosts=st.integers(0, 3),
        seed=st.integers(0, 2**20),
    )
    def test_cut_size_counts_cut_edges(self, num_nodes, num_parts, num_ghosts, seed):
        """Random graphs and partitions, some naming nodes the graph lacks."""
        rng = random.Random(seed)
        probability = rng.choice([0.0, 0.3, 0.7, 1.0])
        graph = WeightedGraph(nodes=range(num_nodes))
        graph.add_edges(
            (u, v)
            for u in range(num_nodes)
            for v in range(u + 1, num_nodes)
            if rng.random() < probability
        )
        partition = [set() for _ in range(num_parts)]
        for node in [*range(num_nodes), *(f"ghost{i}" for i in range(num_ghosts))]:
            rng.choice(partition).add(node)
        assert cut_size(graph, partition) == len(cut_edges(graph, partition))

    def test_pairwise_cut_sizes(self):
        graph = WeightedGraph(
            edges=[("a", "b"), ("a", "c"), ("b", "c"), ("a", "a2")]
        )
        sizes = pairwise_cut_sizes(graph, [{"a", "a2"}, {"b"}, {"c"}])
        assert sizes == {(0, 1): 1, (0, 2): 1, (1, 2): 1}


class _Message:
    def __init__(self, sender, receiver, size_bits):
        self.sender = sender
        self.receiver = receiver
        self.size_bits = size_bits


class TestPerRoundCutTraffic:
    MEMBERSHIP = {"a": 0, "a2": 0, "b": 1}

    def test_counts_only_crossing_messages(self):
        log = [
            (1, _Message("a", "b", 8)),
            (1, _Message("a", "a2", 99)),  # internal: free
            (2, _Message("b", "a", 4)),
            (2, _Message("b", "a2", 4)),
        ]
        traffic = per_round_cut_traffic(log, self.MEMBERSHIP)
        assert traffic == [(1, 1, 8), (2, 2, 8)]

    def test_series_is_dense_with_zero_rounds(self):
        log = [(3, _Message("a", "b", 5))]
        traffic = per_round_cut_traffic(log, self.MEMBERSHIP)
        assert traffic == [(1, 0, 0), (2, 0, 0), (3, 1, 5)]

    def test_num_rounds_extends_the_tail(self):
        log = [(1, _Message("a", "b", 5))]
        traffic = per_round_cut_traffic(log, self.MEMBERSHIP, num_rounds=3)
        assert traffic == [(1, 1, 5), (2, 0, 0), (3, 0, 0)]

    def test_empty_log(self):
        assert per_round_cut_traffic([], self.MEMBERSHIP) == []
