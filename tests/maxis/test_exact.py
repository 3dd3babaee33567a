"""Tests for the exact branch-and-bound MaxIS solver."""

import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commcc import (
    flat_to_index_pair,
    pairwise_disjoint_inputs,
    uniquely_intersecting_inputs,
)
from repro.core.experiments import _common_index
from repro.gadgets import (
    GadgetParameters,
    LinearMaxISFamily,
    QuadraticMaxISFamily,
    linear_intersecting_witness,
    quadratic_intersecting_witness,
    smallest_meaningful_linear_parameters,
)
from repro.graphs import WeightedGraph, clique, random_graph
from repro.graphs.serialize import decode_node
from repro.maxis import (
    BranchAndBoundStats,
    brute_force_max_weight_independent_set,
    kernelize,
    max_independent_set_weight,
    max_weight_independent_set,
)
from repro.maxis.exact import _solve_ordered_masks
from repro.parallel import WorkUnit, run_units
from repro.parallel.engine import THEOREM2_POINTS
from repro.store import JOB_SPECS, combined_fingerprint, derive_key, using_store


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
        explode; the solver (``kernel=False``) and the standalone
        ``kernelize`` (``kernel=True``) must still raise ValueError (not
        RuntimeError) on a negatively-weighted graph, proving the
        validation runs first in both.
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
            (kernelize if kernel else max_weight_independent_set)(graph)

    def test_weight_helper(self):
        graph = clique(["a", "b"], weight=4)
        assert max_independent_set_weight(graph) == 4

    def test_stats_populated(self):
        graph = random_graph(12, 0.4, rng=random.Random(0))
        stats = BranchAndBoundStats()
        max_weight_independent_set(graph, stats=stats)
        assert stats.nodes_expanded > 0

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
        result = max_weight_independent_set(graph)
        assert result.weight == expected
        assert graph.is_independent_set(result.nodes)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_weighted_graphs_match_networkx(self, seed):
        rng = random.Random(seed + 700)
        graph = random_graph(16, 0.4, rng=rng, weight_range=(1, 9))
        expected = _networkx_max_weight_is(graph)
        assert max_weight_independent_set(graph).weight == expected


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


def _intersecting_instances():
    """Seed-0 intersecting instances with the paper's witness for each.

    Theorem 1 at t = 2..5 (Claim 3's set at the common index) and every
    Theorem 2 sweep point (Claim 6's set at the common pair).
    """
    for t in (2, 3, 4, 5):
        params = smallest_meaningful_linear_parameters(t)
        family = LinearMaxISFamily(params)
        inputs = uniquely_intersecting_inputs(params.k, t, rng=random.Random(0))
        witness = linear_intersecting_witness(
            family.construction, _common_index(inputs)
        )
        yield pytest.param(family.build(inputs), witness, id=f"theorem1-t{t}")
    for ell, t in THEOREM2_POINTS:
        params = GadgetParameters(ell=ell, alpha=1, t=t)
        family = QuadraticMaxISFamily(params)
        inputs = uniquely_intersecting_inputs(
            params.k * params.k, t, rng=random.Random(0)
        )
        m1, m2 = flat_to_index_pair(_common_index(inputs), params.k)
        witness = quadratic_intersecting_witness(family.construction, m1, m2)
        yield pytest.param(family.build(inputs), witness, id=f"theorem2-ell{ell}-t{t}")


def _random_independent_set(graph, rng):
    """A random maximal independent set: greedy over a shuffled order."""
    order = sorted(graph.nodes())
    rng.shuffle(order)
    chosen = set()
    for node in order:
        if not graph.neighbors(node) & chosen:
            chosen.add(node)
    return chosen


class TestIncumbent:
    """A known independent set seeds the search and never changes the answer."""

    @pytest.mark.parametrize("graph,witness", list(_intersecting_instances()))
    @pytest.mark.parametrize("kernel", [True, False])
    def test_paper_witness_keeps_the_witness_and_expands_fewer_nodes(
        self, graph, witness, kernel
    ):
        plain_stats, seeded_stats = BranchAndBoundStats(), BranchAndBoundStats()
        plain = max_weight_independent_set(graph, stats=plain_stats)
        searched = graph
        if kernel:
            # The standalone reduction removes nothing on the paper's
            # instances, which is why the solver does not run it: the
            # seeded search on its kernel is the search on the instance.
            reduction = kernelize(graph)
            assert reduction.is_identity
            searched = reduction.reduced_graph()
        seeded = max_weight_independent_set(
            searched, stats=seeded_stats, incumbent=witness
        )
        seeded_nodes = reduction.lift(seeded.nodes) if kernel else seeded.nodes
        assert sorted(seeded_nodes) == sorted(plain.nodes)
        # The paper's set is tight on these instances (Claims 3 and 6).
        assert graph.total_weight(witness) == plain.weight
        assert seeded_stats.nodes_expanded < plain_stats.nodes_expanded

    def test_non_independent_incumbent_is_ignored(self):
        graph = random_graph(14, 0.4, rng=random.Random(3), weight_range=(1, 9))
        u, v = next(iter(graph.edges()))
        heavy = set(graph.nodes())  # far heavier than any independent set
        plain_stats = BranchAndBoundStats()
        plain = max_weight_independent_set(graph, stats=plain_stats)
        for incumbent in (heavy, {u, v}, {"not a node"}):
            stats = BranchAndBoundStats()
            result = max_weight_independent_set(
                graph, stats=stats, incumbent=incumbent
            )
            assert sorted(result.nodes) == sorted(plain.nodes)
            assert stats.nodes_expanded == plain_stats.nodes_expanded

    @pytest.mark.parametrize("seed", range(10))
    def test_random_incumbents_match_oracles(self, seed):
        rng = random.Random(seed + 900)
        graph = random_graph(
            rng.randint(5, 14), rng.uniform(0.1, 0.7), rng=rng, weight_range=(1, 9)
        )
        expected = brute_force_max_weight_independent_set(graph)
        assert _networkx_max_weight_is(graph) == expected.weight
        incumbents = [_random_independent_set(graph, rng) for _ in range(3)]
        incumbents += [set(), set(expected.nodes)]
        plain = max_weight_independent_set(graph)
        for incumbent in incumbents:
            seeded = max_weight_independent_set(graph, incumbent=incumbent)
            assert seeded.weight == expected.weight
            assert sorted(seeded.nodes) == sorted(plain.nodes)

    def test_seed_at_the_optimum_falls_back_to_an_unseeded_search(self):
        # Rounding could put a seed at the optimum; nothing beats it
        # then, and the search must run again rather than return nothing.
        graph = random_graph(12, 0.4, rng=random.Random(5), weight_range=(1, 9))
        _, weights, masks, _ = graph.solver_index_form()
        plain = _solve_ordered_masks(weights, masks, BranchAndBoundStats())
        for seed in (plain[0], plain[0] + 1.0):
            assert _solve_ordered_masks(
                weights, masks, BranchAndBoundStats(), seed
            ) == plain

    def test_store_key_and_payload_do_not_see_the_incumbent(self, monkeypatch):
        # The solver keeps no memo; the ``maxis_solve`` unit is what the
        # store keys.  Its key is the graph and mode alone, so the witness
        # stored under it must be the one a warm-started solve returns.
        graph, witness = next(iter(_intersecting_instances())).values
        kwargs = {"graph": graph, "mode": "exact"}
        writes = []
        with using_store("memory") as store:
            monkeypatch.setattr(
                store.backend,
                "put",
                lambda key, codec, data, kind="": writes.append(
                    (key, codec, data, kind)
                ),
            )
            run_units([WorkUnit("maxis/0", "maxis_solve", kwargs)], workers=1)
        assert [(key, kind) for key, _, _, kind in writes] == [
            (
                derive_key(
                    "parallel.maxis_solve",
                    kwargs,
                    combined_fingerprint(JOB_SPECS["maxis_solve"].modules),
                ),
                "parallel.maxis_solve",
            )
        ]
        stored = json.loads(writes[0][2])["witness"]
        for incumbent in (None, witness):
            result = max_weight_independent_set(graph, incumbent=incumbent)
            assert sorted(map(decode_node, stored)) == sorted(result.nodes)
