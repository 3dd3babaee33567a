"""Constructive witnesses and property checkers for the gadget families.

The lower-bound direction of every claim is witnessed by an explicit
independent set; the structural Properties 1–3 of Section 4.1 are
checked by direct computation (independence tests, maximum bipartite
matchings, exhaustive overlap counting).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

from ..graphs import Node, WeightedGraph, maximum_matching_size
from .linear import LinearConstruction
from .quadratic import QuadraticConstruction


# ----------------------------------------------------------------------
# Witness independent sets (lower-bound directions)
# ----------------------------------------------------------------------

def property1_witness(construction: LinearConstruction, index: int) -> Set[Node]:
    """Property 1's set: ``(∪_i Code^i_m) ∪ {v^i_m : i}`` for ``m = index``."""
    t = construction.params.t
    witness: Set[Node] = set()
    for i in range(t):
        witness.add(construction.a_node(i, index))
        witness.update(construction.code_set(i, index))
    return witness


def linear_intersecting_witness(
    construction: LinearConstruction, index: int
) -> Set[Node]:
    """Claim 3's witness for a common index ``m``: weight ``t(2 ell + alpha)``.

    Identical to Property 1's set; under ``x^1_m = ... = x^t_m = 1`` the
    ``v^i_m`` nodes all carry weight ``ell``, so the set weighs
    ``t * ell + t * (ell + alpha) = t (2 ell + alpha)``.
    """
    return property1_witness(construction, index)


def two_party_intersecting_witness(
    construction: LinearConstruction, index: int
) -> Set[Node]:
    """Claim 1's witness (t = 2): weight ``4 ell + 2 alpha``."""
    if construction.params.t != 2:
        raise ValueError("Claim 1 is stated for t = 2")
    return property1_witness(construction, index)


def quadratic_intersecting_witness(
    construction: QuadraticConstruction, m1: int, m2: int
) -> Set[Node]:
    """Claim 6's witness for a common pair ``(m1, m2)``: weight ``t(4l + 2a)``.

    ``∪_i {v^(i,1)_{m1}} ∪ Code^(i,1)_{m1} ∪ {v^(i,2)_{m2}} ∪ Code^(i,2)_{m2}``.
    Independent iff no input edge ``{v^(i,1)_{m1}, v^(i,2)_{m2}}`` exists,
    i.e. iff ``x^i_(m1,m2) = 1`` for every ``i``.
    """
    t = construction.params.t
    witness: Set[Node] = set()
    for i in range(t):
        witness.add(construction.a_node(i, 0, m1))
        witness.update(construction.code_set(i, 0, m1))
        witness.add(construction.a_node(i, 1, m2))
        witness.update(construction.code_set(i, 1, m2))
    return witness


def heaviest_property1_set(
    construction: LinearConstruction, graph: WeightedGraph
) -> Set[Node]:
    """The heaviest Property 1 set in ``graph`` (a ``G_x``) over all ``m``.

    ``G_x`` only reweights ``G``, so every Property 1 set is independent
    in it; on the disjoint side the heaviest one is a lower bound on
    OPT for the search to start from.  One weight pass per index, in
    ``graph``'s live weights; the lowest ``m`` wins a tie, and only the
    winning set is built.
    """
    weight = graph.weight
    best_index, best_weight = 0, -1.0
    for m in range(construction.params.k):
        total = 0
        for i in range(construction.params.t):
            total += weight(construction.a_node(i, m))
            total += sum(map(weight, construction.code_set(i, m)))
        if total > best_weight:
            best_index, best_weight = m, total
    return property1_witness(construction, best_index)


def heaviest_claim6_set(
    construction: QuadraticConstruction, graph: WeightedGraph
) -> Set[Node]:
    """The heaviest Claim 6 set in ``graph`` (an ``F_x``) over all pairs.

    For a pair ``(m1, m2)`` the set is Claim 6's, less every
    ``v^(i,2)_{m2}`` adjacent to ``v^(i,1)_{m1}`` in ``graph``: those
    input edges are the only ones ``F_x`` adds to ``F``, so what is left
    is independent.  On the disjoint side the heaviest such set is a
    lower bound on OPT for the search to start from.  One weight pass
    per index of each copy, then one adjacency test per player and pair;
    the first pair in ``(m1, m2)`` order wins a tie, and only the
    winning set is built.
    """
    t, k = construction.params.t, construction.params.k
    weight = graph.weight

    def side_weight(copy: int, m: int) -> float:
        return sum(
            weight(construction.a_node(i, copy, m))
            + sum(map(weight, construction.code_set(i, copy, m)))
            for i in range(t)
        )

    left = [side_weight(0, m) for m in range(k)]
    right = [side_weight(1, m) for m in range(k)]
    best, best_weight = (0, 0, []), -1.0
    for m1 in range(k):
        for m2 in range(k):
            dropped = [
                construction.a_node(i, 1, m2)
                for i in range(t)
                if graph.has_edge(
                    construction.a_node(i, 0, m1), construction.a_node(i, 1, m2)
                )
            ]
            total = left[m1] + right[m2] - sum(map(weight, dropped))
            if total > best_weight:
                best, best_weight = (m1, m2, dropped), total
    m1, m2, dropped = best
    witness = quadratic_intersecting_witness(construction, m1, m2)
    witness.difference_update(dropped)
    return witness


# ----------------------------------------------------------------------
# Property checkers
# ----------------------------------------------------------------------

def check_property1(construction: LinearConstruction, index: int) -> bool:
    """Property 1: the witness set is independent in the fixed graph."""
    witness = property1_witness(construction, index)
    return construction.graph.is_independent_set(witness)


def property2_matching_size(
    construction: LinearConstruction, i: int, j: int, m1: int, m2: int
) -> int:
    """Maximum matching between ``Code^i_{m1}`` and ``Code^j_{m2}``.

    Property 2 asserts this is at least ``ell`` whenever ``i != j`` and
    ``m1 != m2``.  Computed with Hopcroft–Karp — an independent check of
    the code-distance argument.
    """
    if i == j:
        raise ValueError("Property 2 is about distinct players")
    if m1 == m2:
        raise ValueError("Property 2 is about distinct indices")
    left = construction.code_set(i, m1)
    right = construction.code_set(j, m2)
    return maximum_matching_size(construction.graph, left, right)


def check_property2(
    construction: LinearConstruction, i: int, j: int, m1: int, m2: int
) -> bool:
    """Property 2: matching of size at least ``ell``."""
    return property2_matching_size(construction, i, j, m1, m2) >= construction.params.ell


def property3_overlap_count(
    construction: LinearConstruction,
    independent_set: Iterable[Node],
    i: int,
    j: int,
    m1: int,
    m2: int,
) -> int:
    """Count positions ``h`` where the set holds both codeword nodes.

    Property 3: for any independent set ``I`` and distinct players/
    indices, the number of ``h`` with ``sigma^i_(h, w1_h) in I`` and
    ``sigma^j_(h, w2_h) in I`` is at most ``alpha``.
    """
    if i == j or m1 == m2:
        raise ValueError("Property 3 is about distinct players and indices")
    node_set = set(independent_set)
    if not construction.graph.is_independent_set(node_set):
        raise ValueError("the provided set is not independent")
    word1 = construction.code.codeword(m1)
    word2 = construction.code.codeword(m2)
    count = 0
    for h in range(construction.params.q):
        node_i = construction.layouts[i].code_node(h, word1[h])
        node_j = construction.layouts[j].code_node(h, word2[h])
        if node_i in node_set and node_j in node_set:
            count += 1
    return count


def check_property3(
    construction: LinearConstruction,
    independent_set: Iterable[Node],
    i: int,
    j: int,
    m1: int,
    m2: int,
) -> bool:
    """Property 3: overlap count at most ``alpha``."""
    overlap = property3_overlap_count(construction, independent_set, i, j, m1, m2)
    return overlap <= construction.params.alpha


def corollary2_bound(construction: LinearConstruction) -> int:
    """Corollary 2's bound ``(t + 1) ell + alpha t^2``.

    Applies to any independent set containing one weight-``ell`` clique
    node per player with pairwise distinct indices.
    """
    params = construction.params
    return (params.t + 1) * params.ell + params.alpha * params.t * params.t
