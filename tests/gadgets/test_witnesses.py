"""Tests for the witnesses and property checkers (Properties 1-3, Claims 1/3/6).

Also the disjoint-side incumbents the sweeps hand the exact search: the
heaviest Property 1 set (Theorem 1) and the heaviest Claim 6 set with
its conflicting nodes dropped (Theorem 2).
"""

import itertools
import random

import pytest

from repro.commcc import (
    BitString,
    index_pair_to_flat,
    pairwise_disjoint_inputs,
    uniquely_intersecting_inputs,
)
from repro.gadgets import (
    GadgetParameters,
    LinearMaxISFamily,
    QuadraticMaxISFamily,
    check_property1,
    check_property2,
    check_property3,
    corollary2_bound,
    heaviest_claim6_set,
    heaviest_property1_set,
    linear_intersecting_witness,
    property1_witness,
    property2_matching_size,
    property3_overlap_count,
    quadratic_intersecting_witness,
    smallest_meaningful_linear_parameters,
    two_party_intersecting_witness,
)
from repro.maxis import (
    BranchAndBoundStats,
    max_weight_independent_set,
    random_maximal_independent_set,
)
from repro.parallel.engine import THEOREM2_POINTS


class TestProperty1:
    def test_all_indices_figure_scale(self, linear_fig, figure_params):
        for m in range(figure_params.k):
            assert check_property1(linear_fig, m)

    def test_three_players(self, linear_fig_t3, figure_params_t3):
        """Figure 3: {v^1_1, v^2_1, v^3_1} ∪ Code^i_1 is independent."""
        for m in range(figure_params_t3.k):
            assert check_property1(linear_fig_t3, m)

    def test_witness_size(self, linear_fig_t3, figure_params_t3):
        witness = property1_witness(linear_fig_t3, 0)
        t, q = figure_params_t3.t, figure_params_t3.q
        assert len(witness) == t * (1 + q)

    def test_witness_spans_all_players(self, linear_fig_t3):
        witness = property1_witness(linear_fig_t3, 0)
        players = {node[1] for node in witness}
        assert players == {0, 1, 2}


class TestProperty2:
    def test_all_pairs_figure_scale(self, linear_fig, figure_params):
        for m1, m2 in itertools.permutations(range(figure_params.k), 2):
            assert check_property2(linear_fig, 0, 1, m1, m2)

    def test_matching_at_least_ell_meaningful_scale(self, linear_meaningful):
        params = linear_meaningful.params
        for i, j in itertools.combinations(range(params.t), 2):
            for m1, m2 in [(0, 1), (1, 3), (2, 4)]:
                size = property2_matching_size(linear_meaningful, i, j, m1, m2)
                assert size >= params.ell

    def test_same_player_rejected(self, linear_fig):
        with pytest.raises(ValueError):
            property2_matching_size(linear_fig, 0, 0, 0, 1)

    def test_same_index_rejected(self, linear_fig):
        with pytest.raises(ValueError):
            property2_matching_size(linear_fig, 0, 1, 2, 2)


class TestProperty3:
    def test_random_maximal_sets(self, linear_fig, figure_params):
        rng = random.Random(1)
        for _ in range(10):
            independent = random_maximal_independent_set(
                linear_fig.graph, rng=rng
            ).nodes
            for m1, m2 in itertools.permutations(range(figure_params.k), 2):
                assert check_property3(linear_fig, independent, 0, 1, m1, m2)

    def test_witness_overlap_counted(self, linear_fig):
        """The Property-1 witness for m contains Code^0_m and Code^1_m, so
        overlap for (m, m') with m != m' counts only shared positions."""
        witness = property1_witness(linear_fig, 0)
        count = property3_overlap_count(linear_fig, witness, 0, 1, 0, 1)
        assert count <= linear_fig.params.alpha

    def test_non_independent_set_rejected(self, linear_fig):
        clique_pair = [linear_fig.a_node(0, 0), linear_fig.a_node(0, 1)]
        with pytest.raises(ValueError):
            property3_overlap_count(linear_fig, clique_pair, 0, 1, 0, 1)

    def test_distinctness_enforced(self, linear_fig):
        with pytest.raises(ValueError):
            property3_overlap_count(linear_fig, [], 0, 0, 0, 1)
        with pytest.raises(ValueError):
            property3_overlap_count(linear_fig, [], 0, 1, 1, 1)


class TestLinearWitnesses:
    def test_claim3_witness_weight(self, linear_fig_t3, figure_params_t3):
        params = figure_params_t3
        inputs = uniquely_intersecting_inputs(
            params.k, params.t, rng=random.Random(0), common_index=1
        )
        graph = linear_fig_t3.apply_inputs(inputs)
        witness = linear_intersecting_witness(linear_fig_t3, 1)
        assert graph.is_independent_set(witness)
        assert graph.total_weight(witness) == params.linear_high_threshold()

    def test_claim1_witness_requires_t2(self, linear_fig_t3):
        with pytest.raises(ValueError):
            two_party_intersecting_witness(linear_fig_t3, 0)

    def test_claim1_witness_weight(self, linear_fig, figure_params):
        params = figure_params
        inputs = [BitString.ones(params.k)] * 2
        graph = linear_fig.apply_inputs(inputs)
        witness = two_party_intersecting_witness(linear_fig, 0)
        assert graph.total_weight(witness) == 4 * params.ell + 2 * params.alpha

    def test_corollary2_bound_value(self, linear_fig_t3, figure_params_t3):
        params = figure_params_t3
        expected = (params.t + 1) * params.ell + params.alpha * params.t ** 2
        assert corollary2_bound(linear_fig_t3) == expected


class TestQuadraticWitness:
    def test_claim6_witness(self, quadratic_fig, figure_params):
        params = figure_params
        k = params.k
        flat = index_pair_to_flat(0, 1, k)
        inputs = uniquely_intersecting_inputs(
            k * k, params.t, rng=random.Random(2), common_index=flat
        )
        graph = quadratic_fig.apply_inputs(inputs)
        witness = quadratic_intersecting_witness(quadratic_fig, 0, 1)
        assert graph.is_independent_set(witness)
        assert graph.total_weight(witness) == params.quadratic_high_threshold()

    def test_witness_blocked_without_common_bit(self, quadratic_fig, figure_params):
        """If some player's bit (m1, m2) is 0, its input edge kills the witness."""
        params = figure_params
        k = params.k
        flat = index_pair_to_flat(0, 1, k)
        x0 = BitString.ones(k * k) ^ BitString.from_indices(k * k, [flat])
        x1 = BitString.ones(k * k)
        graph = quadratic_fig.apply_inputs([x0, x1])
        witness = quadratic_intersecting_witness(quadratic_fig, 0, 1)
        assert not graph.is_independent_set(witness)

    def test_witness_size(self, quadratic_fig, figure_params):
        witness = quadratic_intersecting_witness(quadratic_fig, 0, 1)
        t, q = figure_params.t, figure_params.q
        assert len(witness) == 2 * t * (1 + q)


def _full_grid_families():
    """The sweep points of ``full_grid``: Theorem 1 t = 2..5, every Theorem 2 point."""
    for t in (2, 3, 4, 5):
        family = LinearMaxISFamily(smallest_meaningful_linear_parameters(t))
        yield pytest.param(family, id=f"theorem1-t{t}")
    for ell, t in THEOREM2_POINTS:
        family = QuadraticMaxISFamily(GadgetParameters(ell=ell, alpha=1, t=t))
        yield pytest.param(family, id=f"theorem2-ell{ell}-t{t}")


def _disjoint_incumbent(family, seed):
    """A seeded disjoint instance ``G_x`` and the incumbent built for it."""
    params = family.params
    construction = family.construction
    if isinstance(family, LinearMaxISFamily):
        length, build = params.k, heaviest_property1_set
    else:
        length, build = params.k * params.k, heaviest_claim6_set
    inputs = pairwise_disjoint_inputs(length, params.t, rng=random.Random(seed))
    graph = family.build(inputs)
    return graph, build(construction, graph)


class TestDisjointIncumbents:
    @pytest.mark.parametrize("family", list(_full_grid_families()))
    @pytest.mark.parametrize("seed", range(5))
    def test_independent_bounded_and_leaves_the_witness(self, family, seed):
        graph, incumbent = _disjoint_incumbent(family, seed)
        assert graph.is_independent_set(incumbent)
        plain = max_weight_independent_set(graph)
        seeded = max_weight_independent_set(graph, incumbent=incumbent)
        weight = graph.total_weight(incumbent)
        assert weight <= plain.weight
        assert weight <= family.gap.low_threshold
        assert seeded.nodes == plain.nodes

    def test_linear_set_is_the_heaviest_property1_set(self):
        family = LinearMaxISFamily(smallest_meaningful_linear_parameters(4))
        for seed in range(5):
            graph, incumbent = _disjoint_incumbent(family, seed)
            weights = [
                graph.total_weight(property1_witness(family.construction, m))
                for m in range(family.params.k)
            ]
            assert graph.total_weight(incumbent) == max(weights)
            first = weights.index(max(weights))
            assert incumbent == property1_witness(family.construction, first)

    def test_quadratic_set_is_the_heaviest_claim6_set_without_conflicts(self):
        family = QuadraticMaxISFamily(GadgetParameters(ell=2, alpha=1, t=3))
        construction, k = family.construction, family.params.k
        for seed in range(5):
            graph, incumbent = _disjoint_incumbent(family, seed)
            best = 0
            for m1, m2 in itertools.product(range(k), repeat=2):
                candidate = quadratic_intersecting_witness(construction, m1, m2)
                for i in range(family.params.t):
                    left = construction.a_node(i, 0, m1)
                    right = construction.a_node(i, 1, m2)
                    if graph.has_edge(left, right):
                        candidate.discard(right)
                assert graph.is_independent_set(candidate)
                best = max(best, graph.total_weight(candidate))
            assert graph.total_weight(incumbent) == best

    def test_incumbent_prunes_the_disjoint_search(self):
        family = LinearMaxISFamily(smallest_meaningful_linear_parameters(5))
        plain_nodes = seeded_nodes = 0
        for seed in range(5):
            graph, incumbent = _disjoint_incumbent(family, seed)
            plain, seeded = BranchAndBoundStats(), BranchAndBoundStats()
            max_weight_independent_set(graph, stats=plain)
            max_weight_independent_set(graph, stats=seeded, incumbent=incumbent)
            plain_nodes += plain.nodes_expanded
            seeded_nodes += seeded.nodes_expanded
        assert seeded_nodes < plain_nodes
