"""Tests for the CONGEST network simulator: semantics and accounting."""

import pytest

from repro.congest import (
    BandwidthExceededError,
    CongestNetwork,
    FullGraphCollection,
    NodeAlgorithm,
    integer_bits,
    payload_size_bits,
)
from repro.graphs import WeightedGraph, clique, path_graph


class _Silent(NodeAlgorithm):
    def on_round(self, ctx, inbox):
        ctx.halt("done")


class _PingOnce(NodeAlgorithm):
    """Node 'a' sends one message to 'b' in round 1; receivers record."""

    def __init__(self):
        self.received = []

    def initialize(self, ctx):
        if ctx.node_id == "a":
            ctx.send("b", 42, size_bits=6)

    def on_round(self, ctx, inbox):
        self.received.extend((ctx.round_number, m.payload) for m in inbox)
        ctx.halt(len(inbox))


class TestBasics:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            CongestNetwork(WeightedGraph(), _Silent)

    def test_bad_multiplier_rejected(self):
        with pytest.raises(ValueError):
            CongestNetwork(clique(["a", "b"]), _Silent, bandwidth_multiplier=0)

    def test_all_nodes_halt(self):
        net = CongestNetwork(clique(["a", "b", "c"]), _Silent)
        rounds = net.run()
        assert rounds == 1
        assert net.all_halted()
        assert set(net.outputs().values()) == {"done"}

    def test_message_delivered_next_round(self):
        graph = path_graph(["a", "b"])
        algs = {}

        def factory():
            alg = _PingOnce()
            algs[len(algs)] = alg
            return alg

        net = CongestNetwork(graph, factory, bandwidth_multiplier=8)
        net.run()
        received = [r for alg in algs.values() for r in alg.received]
        assert received == [(1, 42)]

    def test_id_bits_at_least_one(self):
        net = CongestNetwork(WeightedGraph(nodes=["solo"]), _Silent)
        assert net.id_bits == 1

    def test_id_bits_log_n(self):
        net = CongestNetwork(clique(list(range(9))), _Silent)
        assert net.id_bits == 4

    def test_context_exposes_weight_and_degree(self):
        graph = WeightedGraph(nodes={"a": 5, "b": 1})
        graph.add_edge("a", "b")
        net = CongestNetwork(graph, _Silent)
        ctx = net.contexts["a"]
        assert ctx.weight == 5
        assert ctx.degree == 1
        assert ctx.num_nodes == 2


class TestSendRules:
    def test_send_to_non_neighbor_rejected(self):
        class Bad(NodeAlgorithm):
            def initialize(self, ctx):
                if ctx.node_id == "a":
                    ctx.send("c", 1)

            def on_round(self, ctx, inbox):
                ctx.halt()

        graph = path_graph(["a", "b", "c"])
        with pytest.raises(ValueError):
            CongestNetwork(graph, Bad).run()

    def test_halted_node_cannot_send(self):
        class HaltThenSend(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                ctx.halt()
                ctx.send(ctx.neighbors[0], 1)

        with pytest.raises(RuntimeError):
            CongestNetwork(clique(["a", "b"]), HaltThenSend).run()

    def test_oversized_message_rejected(self):
        class Chatty(NodeAlgorithm):
            def initialize(self, ctx):
                ctx.send(ctx.neighbors[0], 0, size_bits=10_000)

            def on_round(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(BandwidthExceededError):
            CongestNetwork(clique(["a", "b"]), Chatty).run()

    def test_edge_oversubscription_rejected(self):
        class DoubleSend(NodeAlgorithm):
            def initialize(self, ctx):
                bits = 3
                for _ in range(10):
                    ctx.send(ctx.neighbors[0], 1, size_bits=bits)

            def on_round(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(BandwidthExceededError):
            CongestNetwork(clique(["a", "b"]), DoubleSend).run()

    def test_bandwidth_resets_between_rounds(self):
        class OnePerRound(NodeAlgorithm):
            def initialize(self, ctx):
                self.sent = 0
                if ctx.node_id == "a":
                    ctx.send("b", 0, size_bits=1)
                    self.sent = 1

            def on_round(self, ctx, inbox):
                if ctx.node_id == "a" and self.sent < 3:
                    ctx.send("b", 0, size_bits=1)
                    self.sent += 1
                else:
                    ctx.halt()

        net = CongestNetwork(clique(["a", "b"]), OnePerRound, bandwidth_multiplier=1)
        net.run()  # must not raise

    def test_different_messages_to_different_neighbors(self):
        received = {}

        class Personalized(NodeAlgorithm):
            def initialize(self, ctx):
                if ctx.node_id == "hub":
                    for i, neighbor in enumerate(ctx.neighbors):
                        ctx.send(neighbor, i, size_bits=4)

            def on_round(self, ctx, inbox):
                for m in inbox:
                    received[ctx.node_id] = m.payload
                ctx.halt()

        graph = WeightedGraph(edges=[("hub", "x"), ("hub", "y")])
        CongestNetwork(graph, Personalized, bandwidth_multiplier=2).run()
        assert len(set(received.values())) == 2


    def test_one_budget_per_edge_direction(self):
        """Each edge direction has its own budget; the error names the edge."""
        sender, first, second = ("v", 0), ("v", 1), ("v", 2)

        class Fanout(NodeAlgorithm):
            def initialize(self, ctx):
                if ctx.node_id == sender:
                    ctx.send(first, 0, size_bits=ctx.id_bits)
                    ctx.send(second, 0, size_bits=ctx.id_bits)  # accepted
                    ctx.send(first, 0, size_bits=1)  # over budget

            def on_round(self, ctx, inbox):
                ctx.halt()

        graph = WeightedGraph(edges=[(sender, first), (sender, second)])
        with pytest.raises(BandwidthExceededError) as raised:
            CongestNetwork(graph, Fanout).run()
        assert repr((sender, first)) in str(raised.value)


class TestAccounting:
    def test_bits_and_messages_counted(self):
        class SendOne(NodeAlgorithm):
            def initialize(self, ctx):
                for neighbor in ctx.neighbors:
                    ctx.send(neighbor, 1, size_bits=2)

            def on_round(self, ctx, inbox):
                ctx.halt()

        net = CongestNetwork(clique(["a", "b", "c"]), SendOne)
        net.run()
        assert net.total_messages == 6  # 3 nodes x 2 neighbors
        assert net.total_bits == 12

    def test_round_stats_recorded(self):
        net = CongestNetwork(clique(["a", "b"]), _Silent)
        net.run()
        assert len(net.round_stats) == 1
        assert net.round_stats[0].round_number == 1

    def test_message_log_disabled_by_default(self):
        net = CongestNetwork(clique(["a", "b"]), _Silent)
        net.run()
        assert net.message_log == []

    def test_max_rounds_enforced(self):
        class Forever(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                ctx.broadcast(1, size_bits=1)

        with pytest.raises(RuntimeError):
            CongestNetwork(clique(["a", "b"]), Forever).run(max_rounds=10)

    def test_quiescence_finalizes(self):
        class Passive(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                pass

            def finalize(self, ctx):
                ctx.halt("finalized")

        net = CongestNetwork(clique(["a", "b"]), Passive)
        net.run_until_quiescent()
        assert set(net.outputs().values()) == {"finalized"}


class TestEdgeTelemetry:
    """Per-edge bandwidth telemetry is keyed by the ``(sender, receiver)`` pair."""

    def test_mixed_utilization(self):
        from repro import obs

        class Uneven(NodeAlgorithm):
            def initialize(self, ctx):
                for i, neighbor in enumerate(ctx.neighbors):
                    ctx.send(neighbor, 0, size_bits=1 + i)
                ctx.send(ctx.neighbors[0], 0, size_bits=2)

            def on_round(self, ctx, inbox):
                ctx.halt()

        with obs.recording() as recorder:
            CongestNetwork(path_graph(["a", "b", "c"]), Uneven, bandwidth_multiplier=2).run()
        utilization = recorder.histograms["congest.edge_utilization"]
        assert (utilization.count, utilization.sum) == (4, 2.75)
        assert (utilization.min, utilization.max) == (0.5, 0.75)
        assert recorder.keyed_counters["congest.edge_bits"] == {
            "'a'->'b'": 3,
            "'b'->'a'": 3,
            "'b'->'c'": 2,
            "'c'->'b'": 3,
        }

    def test_collection_on_a_cycle(self):
        from repro import obs
        from repro.congest import FullGraphCollection
        from repro.graphs import cycle_graph

        graph = cycle_graph([("v", i) for i in range(5)])
        with obs.recording() as recorder:
            CongestNetwork(graph, FullGraphCollection, bandwidth_multiplier=3).run_until_quiescent()
        utilization = recorder.histograms["congest.edge_utilization"]
        assert utilization.count == 65
        assert utilization.min == utilization.max == 8 / 9
        assert utilization.sum == pytest.approx(65 * 8 / 9)
        # Each node sends 8 facts of 6 bits to its first neighbour in
        # repr order and 7 to its second.
        edge_bits = {}
        for i in range(5):
            first, second = sorted([("v", (i + 1) % 5), ("v", (i - 1) % 5)], key=repr)
            edge_bits[f"{('v', i)!r}->{first!r}"] = 48
            edge_bits[f"{('v', i)!r}->{second!r}"] = 56
        assert recorder.keyed_counters["congest.edge_bits"] == edge_bits


class TestPayloadSizing:
    def test_integer_bits(self):
        assert integer_bits(0) == 1
        assert integer_bits(1) == 1
        assert integer_bits(255) == 8

    def test_integer_bits_negative_raises(self):
        with pytest.raises(ValueError):
            integer_bits(-1)

    def test_payload_sizes(self):
        assert payload_size_bits(None, 8) == 1
        assert payload_size_bits(True, 8) == 1
        assert payload_size_bits(7, 8) == 3
        assert payload_size_bits(1.5, 8) == 64
        assert payload_size_bits("ab", 8) == 16
        assert payload_size_bits((1, 1), 8) == 6  # 2 * (2 + 1)
        assert payload_size_bits(object(), 8) == 8


class TestDeliveryCallback:
    """``on_delivery`` sees each round's delivered messages as they arrive."""

    def test_sees_exactly_the_message_log(self):
        network = CongestNetwork(
            path_graph(["a", "b", "c", "d"]), FullGraphCollection, bandwidth_multiplier=3
        )
        network.message_log_enabled = True
        seen = []
        network.run_until_quiescent(
            on_delivery=lambda r, delivered: seen.extend((r, m) for m in delivered)
        )
        assert seen and seen == network.message_log

    def test_called_once_per_round_in_order(self):
        rounds = []
        network = CongestNetwork(
            path_graph(["a", "b", "c", "d"]), FullGraphCollection, bandwidth_multiplier=3
        )
        executed = network.run_until_quiescent(
            on_delivery=lambda r, delivered: rounds.append(r)
        )
        assert executed > 1
        assert rounds == list(range(1, executed + 1))

    def test_skips_messages_to_crashed_receivers(self):
        network = CongestNetwork(
            path_graph(["a", "b", "c"]), FullGraphCollection, bandwidth_multiplier=3
        )
        network.crash("c", at_round=2)
        receivers = set()
        network.run_until_quiescent(
            on_delivery=lambda r, delivered: receivers.update(
                (r, m.receiver) for m in delivered
            )
        )
        assert (1, "c") in receivers
        assert not {(r, node) for r, node in receivers if r >= 2 and node == "c"}

    def test_network_keeps_no_reference_to_the_callback(self):
        import gc
        import weakref

        class Counter:
            def __call__(self, round_number, delivered):
                pass

        counter = Counter()
        ref = weakref.ref(counter)
        network = CongestNetwork(path_graph(["a", "b"]), _Silent)
        gc.disable()
        try:
            network.run_until_quiescent(on_delivery=counter)
            del counter
            assert ref() is None
        finally:
            gc.enable()
