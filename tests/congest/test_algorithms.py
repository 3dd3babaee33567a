"""Tests for the bundled CONGEST algorithms."""

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.congest import (
    BFSTree,
    CongestNetwork,
    FloodBroadcast,
    FullGraphCollection,
    GreedyWeightedIS,
    LeaderElection,
    LubyMIS,
)
from repro.graphs import (
    WeightedGraph,
    clique,
    cycle_graph,
    path_graph,
    random_graph,
    star_graph,
)
from repro.maxis import greedy_by_weight, max_independent_set_weight


def _is_maximal_independent(graph, nodes):
    if not graph.is_independent_set(nodes):
        return False
    covered = set(nodes)
    for node in nodes:
        covered |= graph.neighbors(node)
    return covered == graph.node_set()


class TestFullGraphCollection:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: clique(list(range(6))),
            lambda: cycle_graph(list(range(7))),
            lambda: path_graph(list(range(5))),
            lambda: random_graph(10, 0.4, rng=random.Random(0)),
        ],
    )
    def test_everyone_learns_the_graph(self, graph_factory):
        graph = graph_factory()
        if not graph.is_connected():
            pytest.skip("collection needs a connected graph")
        net = CongestNetwork(graph, FullGraphCollection, bandwidth_multiplier=3)
        net.run_until_quiescent()
        for output in net.outputs().values():
            assert output == graph

    def test_weights_travel_too(self):
        graph = path_graph(["a", "b", "c"])
        graph.set_weight("a", 9)
        net = CongestNetwork(graph, FullGraphCollection, bandwidth_multiplier=3)
        net.run_until_quiescent()
        collected = net.outputs()["c"]
        assert collected.weight("a") == 9

    def test_local_evaluation(self):
        graph = cycle_graph(list(range(5)))
        net = CongestNetwork(
            graph,
            lambda: FullGraphCollection(evaluate=max_independent_set_weight),
            bandwidth_multiplier=3,
        )
        net.run_until_quiescent()
        assert set(net.outputs().values()) == {2}

    def test_round_count_bounded_by_information(self):
        graph = clique(list(range(6)))
        net = CongestNetwork(graph, FullGraphCollection, bandwidth_multiplier=3)
        rounds = net.run_until_quiescent()
        facts = graph.num_nodes + graph.num_edges
        assert rounds <= 2 * facts + graph.num_nodes

    def test_factory_evaluates_once_per_distinct_fact_set(self):
        # Two components: each collects its own graph.
        graph = WeightedGraph(edges=[("a", "b"), ("b", "c"), ("x", "y")])
        calls = []

        def evaluate(collected):
            calls.append(collected.node_set())
            return collected.num_nodes

        net = CongestNetwork(
            graph, FullGraphCollection.factory(evaluate), bandwidth_multiplier=3
        )
        net.run_until_quiescent()
        assert sorted(map(sorted, calls)) == [["a", "b", "c"], ["x", "y"]]
        assert net.outputs() == {"a": 3, "b": 3, "c": 3, "x": 2, "y": 2}

    def test_plain_construction_evaluates_at_every_node(self):
        graph = path_graph(["a", "b", "c"])
        calls = []
        net = CongestNetwork(
            graph,
            lambda: FullGraphCollection(evaluate=calls.append),
            bandwidth_multiplier=3,
        )
        net.run_until_quiescent()
        assert len(calls) == 3

    def test_reconstructed_node_order_is_sorted(self):
        graph = random_graph(10, 0.4, rng=random.Random(3))
        collection = FullGraphCollection()
        for node in graph.nodes():
            collection._facts.add(("N", node, graph.weight(node)))
        for u, v in graph.edges():
            collection._facts.add(FullGraphCollection._edge_fact(u, v))
        rebuilt = collection.reconstruct_graph()
        assert rebuilt == graph
        assert list(rebuilt.nodes()) == sorted(graph.nodes(), key=repr)

    def test_simulation_counts_do_not_follow_the_hash_seed(self):
        """The Theorem 5 simulation's search counts are hash-seed free.

        Seeds 0 and 2 gave different ``maxis.exact.nodes_expanded``
        totals while the collected graph was built in set order.
        """
        script = (
            "import json\n"
            "from repro import obs\n"
            "from repro.core.suite import simulation_check_rows\n"
            "with obs.recording() as recorder:\n"
            "    rows = simulation_check_rows(1)\n"
            "print(json.dumps({'rows': rows, 'counters': {\n"
            "    name: value for name, value in recorder.counters.items()\n"
            "    if name.startswith('maxis.')}}, sort_keys=True))\n"
        )
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        outputs = []
        for hash_seed in ("0", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            completed = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=300,
            )
            outputs.append(json.loads(completed.stdout))
        assert outputs[0]["counters"]["maxis.exact.nodes_expanded"] > 0
        assert outputs[0] == outputs[1]


class TestLubyMIS:
    @pytest.mark.parametrize("seed", range(5))
    def test_produces_maximal_independent_set(self, seed):
        graph = random_graph(24, 0.3, rng=random.Random(seed))
        net = CongestNetwork(graph, LubyMIS, bandwidth_multiplier=2, seed=seed)
        net.run(max_rounds=2000)
        mis = {v for v, joined in net.outputs().items() if joined}
        assert _is_maximal_independent(graph, mis)

    def test_edgeless_graph_everyone_joins(self):
        graph = WeightedGraph(nodes=list(range(5)))
        net = CongestNetwork(graph, LubyMIS, bandwidth_multiplier=2, seed=0)
        net.run(max_rounds=100)
        assert all(net.outputs().values())

    def test_clique_exactly_one_joins(self):
        graph = clique(list(range(8)))
        net = CongestNetwork(graph, LubyMIS, bandwidth_multiplier=2, seed=1)
        net.run(max_rounds=2000)
        assert sum(net.outputs().values()) == 1


class TestGreedyWeightedIS:
    @pytest.mark.parametrize("seed", range(4))
    def test_maximal_independent(self, seed):
        graph = random_graph(20, 0.35, rng=random.Random(seed), weight_range=(1, 9))
        net = CongestNetwork(graph, GreedyWeightedIS, bandwidth_multiplier=2)
        net.run(max_rounds=5000)
        chosen = {v for v, joined in net.outputs().items() if joined}
        assert _is_maximal_independent(graph, chosen)

    def test_matches_sequential_greedy_by_weight(self):
        graph = random_graph(15, 0.4, rng=random.Random(42), weight_range=(1, 50))
        # Make weights distinct so both greedy orders coincide.
        for i, node in enumerate(graph.nodes()):
            graph.set_weight(node, 100 * graph.weight(node) + i)
        net = CongestNetwork(graph, GreedyWeightedIS, bandwidth_multiplier=3)
        net.run(max_rounds=5000)
        distributed = {v for v, joined in net.outputs().items() if joined}
        # Sequential greedy with the same (weight, repr(id)) tie-break.
        sequential = set()
        blocked = set()
        for node in sorted(
            graph.nodes(), key=lambda v: (-graph.weight(v), repr(v))
        ):
            if node not in blocked:
                sequential.add(node)
                blocked.add(node)
                blocked |= graph.neighbors(node)
        # Tie-break order differs ((w, id) max vs (-w, id) min), so only
        # require both to be maximal with the same weight when weights are
        # distinct and dominate ids.
        assert graph.total_weight(distributed) == graph.total_weight(sequential)

    def test_heavy_node_always_selected(self):
        graph = star_graph("hub", [f"l{i}" for i in range(4)])
        graph.set_weight("hub", 100)
        net = CongestNetwork(graph, GreedyWeightedIS, bandwidth_multiplier=2)
        net.run(max_rounds=100)
        assert net.outputs()["hub"] is True


class TestBFS:
    @pytest.mark.parametrize("seed", range(3))
    def test_distances_match_centralized_bfs(self, seed):
        graph = random_graph(15, 0.35, rng=random.Random(seed + 7))
        if not graph.is_connected():
            pytest.skip("need a connected sample")
        root = graph.node_list()[0]
        net = CongestNetwork(graph, lambda: BFSTree(root), bandwidth_multiplier=2)
        net.run_until_quiescent()
        distances = {v: out[0] for v, out in net.outputs().items()}
        assert distances == graph.bfs_distances(root)

    def test_parents_form_tree(self):
        graph = cycle_graph(list(range(6)))
        root = 0
        net = CongestNetwork(graph, lambda: BFSTree(root), bandwidth_multiplier=2)
        net.run_until_quiescent()
        outputs = net.outputs()
        assert outputs[root] == (0, None)
        for node, (distance, parent) in outputs.items():
            if node != root:
                assert outputs[parent][0] == distance - 1
                assert graph.has_edge(node, parent)

    def test_rounds_close_to_eccentricity(self):
        graph = path_graph(list(range(10)))
        net = CongestNetwork(graph, lambda: BFSTree(0), bandwidth_multiplier=2)
        rounds = net.run_until_quiescent()
        assert rounds <= 11


class TestLeaderElection:
    @pytest.mark.parametrize("seed", range(3))
    def test_unique_leader_with_max_id(self, seed):
        graph = random_graph(12, 0.4, rng=random.Random(seed + 30))
        if not graph.is_connected():
            pytest.skip("need a connected sample")
        net = CongestNetwork(graph, LeaderElection, bandwidth_multiplier=2)
        net.run_until_quiescent()
        leaders = [v for v, is_leader in net.outputs().items() if is_leader]
        assert leaders == [max(graph.nodes(), key=repr)]


class TestFloodBroadcast:
    def test_everyone_receives_value(self):
        graph = cycle_graph(list(range(8)))
        net = CongestNetwork(
            graph, lambda: FloodBroadcast(0, value=3), bandwidth_multiplier=2
        )
        net.run_until_quiescent()
        assert set(net.outputs().values()) == {3}

    def test_source_without_value_raises(self):
        graph = clique(["a", "b"])
        net = CongestNetwork(graph, lambda: FloodBroadcast("a"))
        with pytest.raises(ValueError):
            net.run_until_quiescent()
