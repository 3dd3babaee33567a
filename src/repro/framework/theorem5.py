"""Theorem 5 — the simulation argument, executed literally.

Given a family of lower bound graphs and a CONGEST algorithm deciding
the predicate, ``t`` players solve ``f`` as follows: player ``i`` builds
and simulates the nodes of ``V^i``; messages inside ``V^i`` are free;
messages crossing the partition are written on the shared blackboard.

This module runs a *real* CONGEST execution over ``G_x``, routes every
cut-crossing message through a real :class:`~repro.commcc.Blackboard`,
and reports both the measured transcript length and the analytic bound
``O(T * |cut| * log |V|)`` it must respect.  The cut is counted round
by round as the run goes, inside the ``theorem5.congest_run`` span: the
network hands each round's delivered messages to a callback, which
writes the cut-crossing ones on the blackboard and adds up that round's
cut bits.  No message log is kept.
:func:`~repro.framework.cut.per_round_cut_traffic` stays the separate
fold that recounts the same series from a network's message log.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..commcc import BitString, Blackboard
from ..congest import CongestNetwork, Message, NodeAlgorithm
from ..obs import get_recorder
from .cut import cut_size, node_membership
from .family import LowerBoundFamily

_obs = get_recorder()


class SimulationReport:
    """Outcome of one simulated run.

    Attributes
    ----------
    predicate_output:
        The CONGEST algorithm's decision (must equal ``f(x)`` for a
        valid family — every node outputs the same Boolean).
    function_value:
        ``f(x)`` computed directly, for comparison.
    rounds:
        CONGEST rounds executed (``T``).
    cut_edges:
        ``|cut(G_x)|``.
    blackboard_bits:
        Measured bits written on the blackboard (cut-crossing traffic).
    analytic_bit_bound:
        ``T * |cut| * bandwidth`` — the Theorem 5 accounting ceiling
        (two directions per edge are both charged; the bound uses the
        per-direction bandwidth, so the ceiling is ``2 T |cut| B``).
    cut_round_bits:
        Bits written on the blackboard per CONGEST round, dense over
        rounds 1..T — the observed distribution that the per-round
        ceiling ``2 |cut| B`` must dominate.
    """

    def __init__(
        self,
        predicate_output: bool,
        function_value: bool,
        rounds: int,
        cut_edges: int,
        blackboard_bits: int,
        bandwidth_bits: int,
        num_nodes: int,
        cut_round_bits: Optional[List[int]] = None,
    ) -> None:
        self.predicate_output = predicate_output
        self.function_value = function_value
        self.rounds = rounds
        self.cut_edges = cut_edges
        self.blackboard_bits = blackboard_bits
        self.bandwidth_bits = bandwidth_bits
        self.num_nodes = num_nodes
        self.cut_round_bits = list(cut_round_bits or [])

    @property
    def analytic_bit_bound(self) -> int:
        """``2 * T * |cut| * B`` — the per-direction bandwidth ceiling."""
        return 2 * self.rounds * self.cut_edges * self.bandwidth_bits

    @property
    def per_round_bit_bound(self) -> int:
        """``2 * |cut| * B`` — the ceiling any single round must respect."""
        return 2 * self.cut_edges * self.bandwidth_bits

    @property
    def is_consistent(self) -> bool:
        """Whether the run obeyed Theorem 5's accounting and semantics."""
        return (
            self.predicate_output == self.function_value
            and self.blackboard_bits <= self.analytic_bit_bound
        )

    def __repr__(self) -> str:
        return (
            f"SimulationReport(output={self.predicate_output}, "
            f"f={self.function_value}, rounds={self.rounds}, "
            f"cut={self.cut_edges}, bits={self.blackboard_bits} <= "
            f"{self.analytic_bit_bound})"
        )


def simulate_congest_via_players(
    family: LowerBoundFamily,
    inputs: Sequence[BitString],
    algorithm_factory: Callable[[], NodeAlgorithm],
    bandwidth_multiplier: int = 3,
    seed: Optional[int] = 0,
    max_rounds: int = 100_000,
    blackboard: Optional[Blackboard] = None,
) -> SimulationReport:
    """Run the Theorem 5 simulation end-to-end.

    Builds ``G_x``, runs the CONGEST algorithm to quiescence, writes
    every cut-crossing message on the blackboard by its measured size
    as it is delivered (content is irrelevant to cost accounting), and
    reads the decision off the node outputs.

    The algorithm's per-node output must be the Boolean predicate value
    (all nodes must agree); anything else raises ``ValueError``.
    """
    family.check_inputs(inputs)
    with _obs.span("theorem5.simulate", players=family.num_players):
        with _obs.span("theorem5.build_instance"):
            graph = family.build(inputs)
            partition = family.partition()
            membership = node_membership(partition)
        board = blackboard if blackboard is not None else Blackboard()

        network = CongestNetwork(
            graph,
            algorithm_factory,
            bandwidth_multiplier=bandwidth_multiplier,
            seed=seed,
        )
        # Dense over rounds 1..T: one entry per delivered round.
        cut_round_bits: List[int] = []
        cut_messages = 0

        def count_cut(round_number: int, delivered: Sequence[Message]) -> None:
            nonlocal cut_messages
            bits = 0
            for message in delivered:
                sender_part = membership[message.sender]
                receiver_part = membership[message.receiver]
                if sender_part != receiver_part:
                    cut_messages += 1
                    bits += message.size_bits
                    board.write_size(
                        sender_part,
                        message.size_bits,
                        label=f"r{round_number}:{sender_part}->{receiver_part}",
                    )
            cut_round_bits.append(bits)

        # Passed per call, never stored on the network: node contexts
        # point back at it, so whatever it references (the board, via
        # this closure) would live until the cyclic collector runs.
        with _obs.span("theorem5.congest_run"):
            rounds = network.run_until_quiescent(
                max_rounds=max_rounds, on_delivery=count_cut
            )
        if _obs.enabled:
            _obs.incr("theorem5.simulations")
            _obs.incr("theorem5.rounds", rounds)
            _obs.incr("theorem5.cut_messages", cut_messages)
            _obs.incr("theorem5.blackboard_bits", sum(cut_round_bits))
            for bits in cut_round_bits:
                _obs.observe("theorem5.cut_round_bits", bits)

        outputs = set(network.outputs().values())
        if len(outputs) != 1 or not isinstance(next(iter(outputs)), bool):
            raise ValueError(
                f"the algorithm must decide the predicate uniformly; got {outputs!r}"
            )
        decision = next(iter(outputs))

        return SimulationReport(
            predicate_output=decision,
            function_value=family.function_value(inputs),
            rounds=rounds,
            cut_edges=cut_size(graph, partition),
            blackboard_bits=board.total_bits,
            bandwidth_bits=network.bandwidth_bits,
            num_nodes=graph.num_nodes,
            cut_round_bits=cut_round_bits,
        )
