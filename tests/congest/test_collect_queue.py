"""FullGraphCollection's single fact queue against per-neighbour deques.

Each node keeps one queue of facts in learning order, with one read
position per neighbour.  The reference below keeps one deque per
neighbour instead, appending every new fact to the deque of each
neighbour other than its sender.  Both must put the same facts on every
edge in the same rounds.
"""

import random
from collections import deque

import pytest

from repro.commcc import uniquely_intersecting_inputs
from repro.congest import CongestNetwork, FullGraphCollection, NodeAlgorithm
from repro.gadgets import GadgetParameters, LinearMaxISFamily
from repro.graphs import random_graph


class _DequeCollection(NodeAlgorithm):
    """Reference flooding: one pending deque per neighbour."""

    def initialize(self, ctx):
        self.facts = {("N", ctx.node_id, ctx.weight)}
        for neighbor in ctx.neighbors:
            a, b = sorted((ctx.node_id, neighbor), key=repr)
            self.facts.add(("E", a, b))
        known = sorted(self.facts, key=repr)
        self.pending = [deque(known) for _ in ctx.neighbors]
        self._send_one_each(ctx)

    def on_round(self, ctx, inbox):
        for message in inbox:
            fact = tuple(message.payload)
            if fact not in self.facts:
                self.facts.add(fact)
                for neighbor, queue in zip(ctx.neighbors, self.pending):
                    if neighbor != message.sender:
                        queue.append(fact)
        self._send_one_each(ctx)

    def _send_one_each(self, ctx):
        for neighbor, queue in zip(ctx.neighbors, self.pending):
            if queue:
                ctx.send(neighbor, queue.popleft(), size_bits=2 + 2 * ctx.id_bits)

    def finalize(self, ctx):
        ctx.halt(len(self.facts))


def _run(graph, factory):
    """Rounds, ``(round, sender, receiver, payload)`` transcript, outputs."""
    transcript = []

    def record(round_number, delivered):
        transcript.extend(
            (round_number, m.sender, m.receiver, m.payload) for m in delivered
        )

    network = CongestNetwork(graph, factory, bandwidth_multiplier=3, seed=0)
    rounds = network.run_until_quiescent(on_delivery=record)
    return rounds, transcript, network.outputs()


def _count_facts(collected):
    """The reference's output: one fact per node and per edge."""
    return collected.num_nodes + collected.num_edges


def _random_graphs():
    sizes = [(6, 0.5), (9, 0.3), (12, 0.25), (15, 0.6), (10, 0.1)]
    for seed, (n, p) in enumerate(sizes):
        rng = random.Random(seed)
        yield f"gnp-{n}-{p}", random_graph(n, p, rng=rng, weight_range=(1, 5))
    # String ids sort differently under repr than integers do.
    rng = random.Random(7)
    yield "gnp-str", random_graph(
        11, 0.35, rng=rng, weight_range=(1, 3), node_factory=lambda i: f"v{i}"
    )


def _gadget_graph():
    family = LinearMaxISFamily(GadgetParameters(ell=2, alpha=1, t=2), warmup=True)
    params = family.params
    inputs = uniquely_intersecting_inputs(params.k, params.t, rng=random.Random(2))
    return family.build(inputs)


GRAPHS = dict(_random_graphs(), gadget=_gadget_graph())


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_transcript_matches_per_neighbour_deques(name):
    graph = GRAPHS[name]
    rounds, transcript, outputs = _run(
        graph, lambda: FullGraphCollection(_count_facts)
    )
    ref_rounds, ref_transcript, ref_outputs = _run(graph, _DequeCollection)
    assert transcript, "the run must send something"
    assert rounds == ref_rounds
    assert transcript == ref_transcript
    assert outputs == ref_outputs


def test_each_fact_is_queued_once_per_node():
    graph = GRAPHS["gnp-15-0.6"]
    network = CongestNetwork(
        graph, FullGraphCollection, bandwidth_multiplier=3, seed=0
    )
    network.run_until_quiescent()
    for algorithm in network.algorithms.values():
        assert len(algorithm._queue) == algorithm.num_facts
        assert set(algorithm._queue) == algorithm._facts
