"""Cut edges of a partitioned graph, and the traffic that crosses them.

``cut(G_x) = E_x \\ (V^1 x V^1 ∪ ... ∪ V^t x V^t)`` — the edges crossing
the player partition.  The round lower bound of Theorem 5 scales
inversely with the cut size, so the exact measured value matters; the
simulation argument additionally charges every message crossing the
cut to the shared blackboard, so :func:`per_round_cut_traffic` folds a
network message log into the per-round cut-crossing message/bit
series that ``repro telemetry`` compares against the analytic bound.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set, Tuple

from ..graphs import Node, WeightedGraph


def node_membership(partition: Sequence[Set[Node]]) -> Dict[Node, int]:
    """Map each node to the index of its part."""
    membership: Dict[Node, int] = {}
    for i, part in enumerate(partition):
        for node in part:
            if node in membership:
                raise ValueError(f"node {node!r} appears in two parts")
            membership[node] = i
    return membership


def cut_edges(
    graph: WeightedGraph, partition: Sequence[Set[Node]]
) -> List[Tuple[Node, Node]]:
    """Return the edges of ``graph`` crossing the partition."""
    membership = node_membership(partition)
    crossing = []
    for u, v in graph.edges():
        pu = membership.get(u)
        pv = membership.get(v)
        if pu is None or pv is None:
            raise ValueError("partition does not cover every edge endpoint")
        if pu != pv:
            crossing.append((u, v))
    return crossing


def cut_size(graph: WeightedGraph, partition: Sequence[Set[Node]]) -> int:
    """Return ``|cut(G)|``.

    Counts each node's neighbours outside its own part and halves the
    total (a crossing edge is seen from both endpoints), without
    building the list :func:`cut_edges` returns.  Raises
    :class:`ValueError` in the same cases as :func:`cut_edges`.
    """
    membership = node_membership(partition)
    if any(graph.degree(node) for node in graph.node_set() - membership.keys()):
        raise ValueError("partition does not cover every edge endpoint")
    crossing = 0
    for part in partition:
        for node in part:
            if node in graph:
                crossing += len(graph.neighbors(node) - part)
    return crossing // 2


def per_round_cut_traffic(
    message_log: Sequence[Tuple[int, object]],
    membership: Mapping[Node, int],
    num_rounds: int = 0,
) -> List[Tuple[int, int, int]]:
    """Fold a message log into per-round cut-crossing traffic.

    ``message_log`` is a :class:`~repro.congest.CongestNetwork`'s
    ``(round_number, message)`` log (``message_log_enabled`` must have
    been on during the run).  Returns one ``(round_number, messages,
    bits)`` triple per round from 1 through ``max(num_rounds, last
    logged round)``, counting only messages whose endpoints lie in
    different parts — rounds with no cut traffic appear as zeros so the
    series is dense and histogram-ready.
    """
    messages_by_round: Dict[int, int] = {}
    bits_by_round: Dict[int, int] = {}
    last_round = num_rounds
    for round_number, message in message_log:
        last_round = max(last_round, round_number)
        if membership[message.sender] == membership[message.receiver]:
            continue
        messages_by_round[round_number] = messages_by_round.get(round_number, 0) + 1
        bits_by_round[round_number] = (
            bits_by_round.get(round_number, 0) + message.size_bits
        )
    return [
        (r, messages_by_round.get(r, 0), bits_by_round.get(r, 0))
        for r in range(1, last_round + 1)
    ]


def pairwise_cut_sizes(
    graph: WeightedGraph, partition: Sequence[Set[Node]]
) -> Dict[Tuple[int, int], int]:
    """Return cut sizes broken down per part pair ``(i, j)``, ``i < j``."""
    membership = node_membership(partition)
    counts: Dict[Tuple[int, int], int] = {}
    for u, v in graph.edges():
        pu, pv = membership[u], membership[v]
        if pu != pv:
            key = (min(pu, pv), max(pu, pv))
            counts[key] = counts.get(key, 0) + 1
    return counts
