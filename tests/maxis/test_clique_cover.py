"""The branch-and-bound clique cover: extraction equals first-fit.

``repro.maxis.exact._clique_cover`` builds the search's clique cover by
extraction: seed a clique at the lowest remaining candidate, grow it by
the lowest remaining common neighbour, remove it, repeat.  The search
once built the same cover first-fit: each candidate, lowest first,
joins the first open clique it is adjacent to throughout, or opens a
new one.  First-fit's clique ``j`` is what extraction produces from the
candidates that cliques ``0..j-1`` left over, so both give the same
clique list in the same order and the same bound.  The witness
stability of the search rests on that: same cover, same prunes, same
``nodes_expanded``, same witness.  ``first_fit_cover`` below keeps the
old build as the reference.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.gadgets import GadgetParameters, LinearConstruction, QuadraticConstruction
from repro.graphs import WeightedGraph
from repro.maxis.exact import _clique_cover


def first_fit_cover(candidates, weights, masks):
    """The first-fit greedy cover: ``(cliques, bound)``, cliques in open order."""
    cliques = []
    bound = 0.0
    remaining = candidates
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        adjacency = masks[low.bit_length() - 1]
        for idx in range(len(cliques)):
            if cliques[idx] & ~adjacency:
                continue  # not adjacent to the whole clique
            cliques[idx] |= low
            break
        else:
            cliques.append(low)
            bound += weights[low.bit_length() - 1]
    return cliques, bound


@st.composite
def index_form_and_candidates(draw):
    """A random graph's solver index form and a subset of its positions."""
    num_nodes = draw(st.integers(min_value=0, max_value=40))
    edge_probability = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.8, 0.95, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = random.Random(seed)
    graph = WeightedGraph()
    for node in range(num_nodes):
        graph.add_node(node, weight=rng.choice([0, 1, 1, 2, 3, 5, 9]))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < edge_probability:
                graph.add_edge(u, v)
    _, weights, masks, _ = graph.solver_index_form()
    candidates = draw(st.integers(min_value=0, max_value=(1 << num_nodes) - 1))
    return weights, masks, candidates


@given(index_form_and_candidates())
def test_extraction_matches_first_fit(case):
    weights, masks, candidates = case
    cliques, bound = _clique_cover(candidates, weights, masks)
    assert (cliques, bound) == first_fit_cover(candidates, weights, masks)


@given(index_form_and_candidates())
def test_cover_partitions_candidates_into_cliques(case):
    weights, masks, candidates = case
    cliques, _ = _clique_cover(candidates, weights, masks)
    union = 0
    for clique in cliques:
        assert clique and not clique & union
        union |= clique
        members = [pos for pos in range(clique.bit_length()) if clique >> pos & 1]
        for pos in members:
            assert clique & ~(1 << pos) & ~masks[pos] == 0
    assert union == candidates


def test_extraction_matches_first_fit_on_gadgets():
    graphs = [
        LinearConstruction(GadgetParameters(ell=4, alpha=1, t=3)).graph,
        QuadraticConstruction(GadgetParameters(ell=2, alpha=1, t=3)).graph,
    ]
    for graph in graphs:
        _, weights, masks, _ = graph.solver_index_form()
        everything = (1 << len(weights)) - 1
        for candidates in (everything, everything & 0x5555_5555_5555_5555):
            assert _clique_cover(candidates, weights, masks) == first_fit_cover(
                candidates, weights, masks
            )
