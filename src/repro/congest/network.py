"""The synchronous CONGEST network simulator.

A network of ``n`` nodes with unique ``O(log n)``-bit identifiers
communicates in synchronous rounds; per round, each node may send a
(possibly different) message of ``O(log n)`` bits to each neighbor.

The simulator enforces the model:

* per-edge, per-direction, per-round bandwidth of
  ``bandwidth_multiplier * ceil(log2 n)`` bits (checked on every send);
* messages sent in round ``r`` are delivered at the start of round
  ``r + 1``;
* nodes act only on local state: their id, weight, neighbor ids, and
  received messages.

Bit and message counts are recorded per edge, which is what the
Theorem 5 simulation argument charges to the blackboard.  Every
directed edge gets an integer id when the network is built, so a send
checks adjacency and finds its edge's round budget with one lookup of
the receiver id.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..graphs import WeightedGraph
from ..obs import get_recorder
from .message import Message, NodeId, payload_size_bits

_obs = get_recorder()


class BandwidthExceededError(RuntimeError):
    """Raised when a node oversubscribes an edge in a round."""


class BroadcastOnlyViolationError(RuntimeError):
    """Raised for point-to-point sends in the CONGEST-Broadcast model.

    In CONGEST-Broadcast (the model of the triangle-detection lower
    bound discussed in the paper's introduction), a node must send the
    *same* O(log n)-bit message to all its neighbors each round.
    """


class NodeContext:
    """What a node is allowed to see and do.

    Algorithms receive this object; it exposes local information only
    (id, weight, neighbor ids, round number, randomness) plus ``send``.
    """

    def __init__(
        self,
        node_id: NodeId,
        weight: float,
        neighbors: Tuple[NodeId, ...],
        network: "CongestNetwork",
        rng: random.Random,
        edge_ids: Dict[NodeId, int],
    ) -> None:
        self.node_id = node_id
        self.weight = weight
        self.neighbors = neighbors
        self.rng = rng
        self.output: object = None
        self.halted = False
        self._network = network
        # neighbor -> id of the directed edge (node_id, neighbor)
        self._edge_ids = edge_ids
        self._in_broadcast = False
        self.round_number = 0

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    @property
    def num_nodes(self) -> int:
        """``n`` — global knowledge of the network size is standard."""
        return self._network.num_nodes

    @property
    def id_bits(self) -> int:
        """The identifier width ``ceil(log2 n)`` (at least 1)."""
        return self._network.id_bits

    def send(self, neighbor: NodeId, payload: object, size_bits: Optional[int] = None) -> None:
        """Queue a message to ``neighbor`` for delivery next round.

        Raises if the node has halted, if the model is broadcast-only,
        if ``neighbor`` is not adjacent, or if the message would exceed
        the per-message or this round's per-edge bandwidth.
        """
        network = self._network
        if self.halted:
            raise RuntimeError(f"halted node {self.node_id!r} cannot send")
        if network.broadcast_only and not self._in_broadcast:
            raise BroadcastOnlyViolationError(
                f"node {self.node_id!r} sent a point-to-point message in the "
                "CONGEST-Broadcast model; use ctx.broadcast"
            )
        edge = self._edge_ids.get(neighbor)
        if edge is None:
            raise ValueError(f"{neighbor!r} is not a neighbor of {self.node_id!r}")
        if size_bits is None:
            size_bits = payload_size_bits(payload, network.id_bits)
        message = Message(self.node_id, neighbor, payload, size_bits)
        bandwidth = network.bandwidth_bits
        if size_bits > bandwidth:
            raise BandwidthExceededError(
                f"message of {size_bits} bits exceeds the per-message "
                f"bandwidth of {bandwidth} bits"
            )
        edge_round_bits = network._edge_round_bits
        used = edge_round_bits.get(edge, 0) + size_bits
        if used > bandwidth:
            raise BandwidthExceededError(
                f"edge {(self.node_id, neighbor)!r} oversubscribed this round: "
                f"{used} > {bandwidth} bits"
            )
        edge_round_bits[edge] = used
        network._outgoing.append(message)

    def broadcast(self, payload: object, size_bits: Optional[int] = None) -> None:
        """Send the same payload to every neighbor.

        In the CONGEST-Broadcast model this is the *only* way to send.
        """
        self._in_broadcast = True
        try:
            for neighbor in self.neighbors:
                self.send(neighbor, payload, size_bits=size_bits)
        finally:
            self._in_broadcast = False

    def halt(self, output: object = None) -> None:
        """Stop participating; record the node's output."""
        self.output = output
        self.halted = True


class NodeAlgorithm:
    """Per-node algorithm interface.

    ``initialize`` runs before round 1 (it may send); ``on_round`` runs
    once per round with the messages delivered this round.
    """

    def initialize(self, ctx: NodeContext) -> None:
        """Set up local state; optionally send round-1 messages."""

    def on_round(self, ctx: NodeContext, inbox: Sequence[Message]) -> None:
        """Process this round's inbox; optionally send and/or halt."""
        raise NotImplementedError

    def finalize(self, ctx: NodeContext) -> None:
        """Called once at quiescence for nodes that have not halted.

        Default: halt with no output.  Algorithms that rely on
        quiescence detection override this to compute their output.
        """
        ctx.halt(None)


AlgorithmFactory = Callable[[], NodeAlgorithm]

#: Called as ``on_delivery(round_number, delivered_messages)`` per round.
DeliveryCallback = Callable[[int, Sequence[Message]], None]


class RoundStats:
    """Per-round accounting."""

    __slots__ = ("round_number", "messages", "bits")

    def __init__(self, round_number: int, messages: int, bits: int) -> None:
        self.round_number = round_number
        self.messages = messages
        self.bits = bits

    def __repr__(self) -> str:
        return (
            f"RoundStats(round={self.round_number}, messages={self.messages}, "
            f"bits={self.bits})"
        )


class CongestNetwork:
    """A CONGEST network over a weighted graph.

    Parameters
    ----------
    graph:
        Topology and node weights.  Node names become node ids.
    algorithm_factory:
        Zero-argument callable returning a fresh :class:`NodeAlgorithm`
        per node.
    bandwidth_multiplier:
        The constant ``c`` in the ``c * ceil(log2 n)`` per-edge bandwidth.
    seed:
        Seed for the per-node randomness (nodes get independent streams).
    """

    def __init__(
        self,
        graph: WeightedGraph,
        algorithm_factory: AlgorithmFactory,
        bandwidth_multiplier: int = 1,
        seed: Optional[int] = None,
        broadcast_only: bool = False,
    ) -> None:
        if graph.num_nodes == 0:
            raise ValueError("cannot build a network on an empty graph")
        if bandwidth_multiplier < 1:
            raise ValueError(
                f"bandwidth multiplier must be >= 1, got {bandwidth_multiplier}"
            )
        self.broadcast_only = broadcast_only
        self.graph = graph
        self.num_nodes = graph.num_nodes
        self.id_bits = max(1, math.ceil(math.log2(self.num_nodes))) if self.num_nodes > 1 else 1
        self.bandwidth_bits = bandwidth_multiplier * self.id_bits
        edge_ids = itertools.count()
        master = random.Random(seed)
        self.contexts: Dict[NodeId, NodeContext] = {}
        self.algorithms: Dict[NodeId, NodeAlgorithm] = {}
        for node in graph.nodes():
            rng = random.Random(master.getrandbits(64))
            neighbors = tuple(sorted(graph.neighbors(node), key=repr))
            self.contexts[node] = NodeContext(
                node_id=node,
                weight=graph.weight(node),
                neighbors=neighbors,
                network=self,
                rng=rng,
                edge_ids=dict(zip(neighbors, edge_ids)),
            )
            self.algorithms[node] = algorithm_factory()
        self._outgoing: List[Message] = []
        self._edge_round_bits: Dict[int, int] = {}
        self._crashed: Set[NodeId] = set()
        self._crash_schedule: Dict[int, List[NodeId]] = {}
        self.rounds_executed = 0
        self.total_messages = 0
        self.total_bits = 0
        self.round_stats: List[RoundStats] = []
        self.message_log_enabled = False
        self.message_log: List[Tuple[int, Message]] = []
        self._initialized = False
        if _obs.enabled:
            _obs.incr("congest.networks_built")
            _obs.gauge("congest.last_network_nodes", self.num_nodes)

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------

    def _initialize(self) -> None:
        for node, algorithm in self.algorithms.items():
            algorithm.initialize(self.contexts[node])
        self._initialized = True

    def crash(self, node: NodeId, at_round: Optional[int] = None) -> None:
        """Inject a crash failure: the node stops participating.

        With ``at_round=None`` the node crashes immediately (its queued
        messages for the next round are dropped); otherwise it crashes
        at the *start* of the given round.  Crashed nodes neither send
        nor receive; their output stays whatever it was.  This is a
        failure-injection facility for testing algorithm robustness —
        the CONGEST model itself is failure-free.
        """
        if node not in self.contexts:
            raise KeyError(f"{node!r} is not a node of this network")
        if at_round is None:
            self._apply_crash(node)
        else:
            if at_round <= self.rounds_executed:
                raise ValueError(
                    f"round {at_round} has already executed "
                    f"(now at {self.rounds_executed})"
                )
            self._crash_schedule.setdefault(at_round, []).append(node)

    def _apply_crash(self, node: NodeId) -> None:
        self._crashed.add(node)
        self.contexts[node].halted = True
        self._outgoing = [
            message for message in self._outgoing if message.sender != node
        ]

    @property
    def crashed_nodes(self) -> Set[NodeId]:
        """Nodes taken down by failure injection."""
        return set(self._crashed)

    def run_round(self, on_delivery: Optional[DeliveryCallback] = None) -> RoundStats:
        """Execute one synchronous round; return its stats.

        ``on_delivery``, when given, is called once with the round
        number and the messages delivered in it (crashed receivers'
        messages excluded) before any node acts on them.
        """
        if not self._initialized:
            self._initialize()
        for node in self._crash_schedule.pop(self.rounds_executed + 1, []):
            self._apply_crash(node)
        in_flight = self._outgoing
        in_flight_edge_bits = self._edge_round_bits
        self._outgoing = []
        self._edge_round_bits = {}
        self.rounds_executed += 1
        round_number = self.rounds_executed
        inboxes: Dict[NodeId, List[Message]] = {node: [] for node in self.contexts}
        crashed = self._crashed
        delivered = in_flight
        if crashed:  # messages to crashed nodes are dropped on the floor
            delivered = [m for m in in_flight if m.receiver not in crashed]
        round_bits = 0
        for message in delivered:
            inboxes[message.receiver].append(message)
            round_bits += message.size_bits
        if self.message_log_enabled:
            self.message_log.extend((round_number, m) for m in delivered)
        if on_delivery is not None:
            on_delivery(round_number, delivered)
        self.total_messages += len(in_flight)
        self.total_bits += round_bits
        for node, algorithm in self.algorithms.items():
            ctx = self.contexts[node]
            if ctx.halted:
                continue
            ctx.round_number = round_number
            algorithm.on_round(ctx, inboxes[node])
        stats = RoundStats(self.rounds_executed, len(in_flight), round_bits)
        self.round_stats.append(stats)
        if _obs.enabled:
            _obs.incr("congest.rounds")
            _obs.incr("congest.messages", stats.messages)
            _obs.incr("congest.bits", stats.bits)
            _obs.observe("congest.round_messages", stats.messages)
            _obs.observe("congest.round_bits", stats.bits)
            # in_flight_edge_bits is the per-edge-direction usage of the
            # messages delivered this round; relative to the per-round
            # budget it is the bandwidth utilization distribution.
            for used in in_flight_edge_bits.values():
                _obs.observe(
                    "congest.edge_utilization", used / self.bandwidth_bits
                )
            for message in delivered:
                _obs.incr_keyed(
                    "congest.edge_bits",
                    f"{message.sender!r}->{message.receiver!r}",
                    message.size_bits,
                )
        return stats

    def run(self, max_rounds: int = 100_000) -> int:
        """Run until every node halts (or ``max_rounds``); return rounds used."""
        if not self._initialized:
            self._initialize()
        while self.rounds_executed < max_rounds:
            if self.all_halted() and not self._outgoing:
                return self.rounds_executed
            self.run_round()
        if not self.all_halted():
            raise RuntimeError(
                f"algorithm did not terminate within {max_rounds} rounds"
            )
        return self.rounds_executed

    def run_until_quiescent(
        self,
        max_rounds: int = 100_000,
        on_delivery: Optional[DeliveryCallback] = None,
    ) -> int:
        """Run until no messages are in flight, then finalize all nodes.

        Quiescence (an empty network after a round) implies no node will
        ever learn anything new, so flooding-style algorithms are done.
        Real deployments detect this with an ``O(diameter)`` convergecast;
        the simulator detects it globally and does not charge those
        rounds.  ``on_delivery`` is passed to every :meth:`run_round`;
        the network keeps no reference to it.  Returns the number of
        rounds executed.
        """
        if not self._initialized:
            self._initialize()
        while self.rounds_executed < max_rounds:
            if self.all_halted():
                break
            self.run_round(on_delivery)
            if not self._outgoing:
                break
        else:
            raise RuntimeError(
                f"network did not quiesce within {max_rounds} rounds"
            )
        for node, algorithm in self.algorithms.items():
            ctx = self.contexts[node]
            if not ctx.halted:
                algorithm.finalize(ctx)
        return self.rounds_executed

    def all_halted(self) -> bool:
        """Whether every node has halted."""
        return all(ctx.halted for ctx in self.contexts.values())

    def outputs(self) -> Dict[NodeId, object]:
        """Collect each node's output."""
        return {node: ctx.output for node, ctx in self.contexts.items()}
