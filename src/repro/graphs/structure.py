"""Structural graph parameters: degeneracy, cores, clique covers.

These quantities bound independent sets from both sides and power the
solver's pruning:

* a greedy clique cover of size ``c`` proves ``alpha(G) <= c`` (each
  clique contributes at most one node) — the bound inside the exact
  solver, exposed here for standalone use;
* a graph of degeneracy ``d`` has ``alpha(G) >= n / (d + 1)`` via the
  degeneracy-order greedy.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from .graph import Node, WeightedGraph


def degeneracy_ordering(graph: WeightedGraph) -> Tuple[List[Node], int]:
    """Return a degeneracy ordering and the degeneracy ``d``.

    Repeatedly removes a minimum-degree node; the ordering lists nodes
    in removal order, and ``d`` is the largest degree seen at removal
    time.  O((n + m) log n) with the simple heap-free implementation
    below (bucket queue).
    """
    degrees = {node: graph.degree(node) for node in graph.nodes()}
    max_degree = max(degrees.values(), default=0)
    buckets: List[Set[Node]] = [set() for _ in range(max_degree + 1)]
    for node, degree in degrees.items():
        buckets[degree].add(node)
    ordering: List[Node] = []
    removed: Set[Node] = set()
    degeneracy = 0
    for _ in range(graph.num_nodes):
        degree = next(d for d, bucket in enumerate(buckets) if bucket)
        node = buckets[degree].pop()
        degeneracy = max(degeneracy, degree)
        ordering.append(node)
        removed.add(node)
        for neighbor in graph.neighbors(node):
            if neighbor in removed:
                continue
            old = degrees[neighbor]
            buckets[old].discard(neighbor)
            degrees[neighbor] = old - 1
            buckets[old - 1].add(neighbor)
    return ordering, degeneracy


def core_numbers(graph: WeightedGraph) -> Dict[Node, int]:
    """Return each node's core number (largest k with the node in a k-core)."""
    degrees = {node: graph.degree(node) for node in graph.nodes()}
    cores: Dict[Node, int] = {}
    max_degree = max(degrees.values(), default=0)
    buckets: List[Set[Node]] = [set() for _ in range(max_degree + 1)]
    for node, degree in degrees.items():
        buckets[degree].add(node)
    current = 0
    removed: Set[Node] = set()
    for _ in range(graph.num_nodes):
        degree = next(d for d, bucket in enumerate(buckets) if bucket)
        current = max(current, degree)
        node = buckets[degree].pop()
        cores[node] = current
        removed.add(node)
        for neighbor in graph.neighbors(node):
            if neighbor in removed:
                continue
            old = degrees[neighbor]
            if old > degree:
                buckets[old].discard(neighbor)
                degrees[neighbor] = old - 1
                buckets[old - 1].add(neighbor)
    return cores


def greedy_clique_cover(graph: WeightedGraph) -> List[Set[Node]]:
    """Partition the nodes into cliques, greedily.

    Visits nodes in descending-degree order and places each into the
    first existing clique it is fully adjacent to.  The cover's size is
    an upper bound on ``alpha(G)``.  This is not the exact solver's
    pruning bound: :func:`repro.maxis.max_weight_independent_set`
    builds its own cover over its search order.
    """
    cliques: List[Set[Node]] = []
    for node in sorted(graph.nodes(), key=lambda v: (-graph.degree(v), repr(v))):
        adjacency = graph.neighbors(node)
        for clique_set in cliques:
            if clique_set <= adjacency:
                clique_set.add(node)
                break
        else:
            cliques.append({node})
    return cliques


def clique_cover_bound(graph: WeightedGraph) -> float:
    """Weighted clique-cover bound: ``sum over cliques of max weight``.

    Always at least the maximum independent set weight.
    """
    return sum(
        max(graph.weight(node) for node in clique_set)
        for clique_set in greedy_clique_cover(graph)
    )


def count_triangles(graph: WeightedGraph) -> int:
    """Count the triangles of the graph (each counted once).

    Uses the degeneracy ordering for an O(m * d) pass — and doubles as
    the centralized oracle for the distributed triangle detector.
    """
    ordering, _ = degeneracy_ordering(graph)
    position = {node: i for i, node in enumerate(ordering)}
    count = 0
    for u in ordering:
        later = {v for v in graph.neighbors(u) if position[v] > position[u]}
        for v in later:
            # Count each triangle once: at its earliest vertex u, for the
            # ordered later pair (v, w) with position[w] > position[v].
            count += sum(
                1
                for w in later & graph.neighbors(v)
                if position[w] > position[v]
            )
    return count


def independence_number_lower_bound(graph: WeightedGraph) -> int:
    """``n / (d + 1)`` rounded up — the degeneracy greedy guarantee."""
    if graph.num_nodes == 0:
        return 0
    _, degeneracy = degeneracy_ordering(graph)
    return -(-graph.num_nodes // (degeneracy + 1))
