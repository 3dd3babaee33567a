"""Full-information graph collection — the universal O(n^2) upper bound.

"Any problem can be solved in O(n^2) rounds in the CONGEST model": every
node learns the entire input graph by flooding facts (node weights and
edges, each an ``O(log n)``-bit token, one token per edge per round) and
then computes the answer locally.  The paper's near-quadratic lower
bound (Theorem 2) is "nearly tight" against exactly this algorithm.

Termination: nodes keep forwarding facts they have not yet relayed to a
given neighbor.  The simulator's quiescence detection (no messages in
flight) triggers :meth:`finalize`, where each node evaluates a local
function of the collected graph.  In a genuine distributed execution
termination detection costs only ``O(diameter)`` extra rounds; the
round counts reported here exclude that additive term.
"""

from __future__ import annotations

from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple
from collections import deque

from ...graphs import WeightedGraph
from ..message import Message, NodeId
from ..network import NodeAlgorithm, NodeContext

# Facts are tagged tuples: ("N", node, weight) or ("E", u, v).
Fact = Tuple


class FullGraphCollection(NodeAlgorithm):
    """Collect the whole graph at every node, then evaluate locally.

    Parameters
    ----------
    evaluate:
        Called at finalize with the reconstructed
        :class:`~repro.graphs.WeightedGraph`; its return value becomes
        the node's output.  Defaults to returning the graph itself.
    """

    def __init__(
        self, evaluate: Optional[Callable[[WeightedGraph], object]] = None
    ) -> None:
        self._evaluate = evaluate or (lambda graph: graph)
        self._facts: Set[Fact] = set()
        self._pending: Dict[NodeId, Deque[Fact]] = {}

    def initialize(self, ctx: NodeContext) -> None:
        self._facts.add(("N", ctx.node_id, ctx.weight))
        for neighbor in ctx.neighbors:
            edge = self._edge_fact(ctx.node_id, neighbor)
            self._facts.add(edge)
        self._pending = {
            neighbor: deque(sorted(self._facts, key=repr))
            for neighbor in ctx.neighbors
        }
        self._flush(ctx)

    def on_round(self, ctx: NodeContext, inbox: Sequence[Message]) -> None:
        for message in inbox:
            fact = tuple(message.payload)
            if fact not in self._facts:
                self._facts.add(fact)
                for neighbor in ctx.neighbors:
                    if neighbor != message.sender:
                        self._pending[neighbor].append(fact)
        self._flush(ctx)

    def _flush(self, ctx: NodeContext) -> None:
        """Send one queued fact per neighbor (one O(log n) token per edge)."""
        for neighbor in ctx.neighbors:
            queue = self._pending[neighbor]
            if queue:
                fact = queue.popleft()
                # A fact is two ids (or an id and a weight) plus a tag:
                # O(log n) bits.  Charged as such.
                ctx.send(neighbor, fact, size_bits=self._fact_bits(ctx))
        # Never halt voluntarily; quiescence + finalize ends the run.

    def finalize(self, ctx: NodeContext) -> None:
        graph = self.reconstruct_graph()
        ctx.halt(self._evaluate(graph))

    def reconstruct_graph(self) -> WeightedGraph:
        """Build the collected graph from the fact set.

        Nodes are added in sorted order, not set order: the graph's
        node order fixes the tie order of the local solve, which must
        not follow ``PYTHONHASHSEED``.  Edges need no order, since each
        node's neighbours are kept in a set.
        """
        graph = WeightedGraph()
        nodes = sorted((fact for fact in self._facts if fact[0] == "N"), key=repr)
        for fact in nodes:
            graph.add_node(fact[1], weight=fact[2])
        for fact in self._facts:
            if fact[0] == "E":
                graph.add_edge(fact[1], fact[2])
        return graph

    @staticmethod
    def _edge_fact(u: NodeId, v: NodeId) -> Fact:
        a, b = sorted((u, v), key=repr)
        return ("E", a, b)

    @staticmethod
    def _fact_bits(ctx: NodeContext) -> int:
        # tag (2 bits) + two O(log n) fields.  Weights in our instances
        # are bounded by a polynomial in n, so they also fit in O(log n).
        # Networks running this algorithm need bandwidth_multiplier >= 3.
        return 2 + 2 * ctx.id_bits

    @property
    def num_facts(self) -> int:
        """How many facts this node currently knows."""
        return len(self._facts)
