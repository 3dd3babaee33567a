"""Tests for the Theorem 5 simulation: players simulate a CONGEST run."""

import random

import pytest

from repro.commcc import Blackboard, pairwise_disjoint_inputs, uniquely_intersecting_inputs
from repro.congest import FullGraphCollection
from repro.framework import simulate_congest_via_players
from repro.gadgets import LinearMaxISFamily
from repro.maxis import max_independent_set_weight


@pytest.fixture(scope="module")
def warmup_family():
    from repro.gadgets import GadgetParameters

    return LinearMaxISFamily(GadgetParameters(ell=2, alpha=1, t=2), warmup=True)


def _decider_factory(low_threshold):
    return lambda: FullGraphCollection(
        evaluate=lambda graph: max_independent_set_weight(graph) <= low_threshold
    )


class TestSimulation:
    @pytest.mark.parametrize("intersecting", [True, False])
    def test_decides_the_function(self, warmup_family, intersecting):
        params = warmup_family.params
        gen = (
            uniquely_intersecting_inputs if intersecting else pairwise_disjoint_inputs
        )
        inputs = gen(params.k, params.t, rng=random.Random(3))
        report = simulate_congest_via_players(
            warmup_family,
            inputs,
            _decider_factory(warmup_family.gap.low_threshold),
        )
        assert report.predicate_output == report.function_value
        assert report.function_value == (not intersecting)
        assert report.is_consistent

    def test_blackboard_bits_within_analytic_bound(self, warmup_family):
        params = warmup_family.params
        inputs = pairwise_disjoint_inputs(params.k, params.t, rng=random.Random(4))
        report = simulate_congest_via_players(
            warmup_family,
            inputs,
            _decider_factory(warmup_family.gap.low_threshold),
        )
        assert 0 < report.blackboard_bits <= report.analytic_bit_bound

    def test_external_blackboard_receives_writes(self, warmup_family):
        params = warmup_family.params
        inputs = pairwise_disjoint_inputs(params.k, params.t, rng=random.Random(5))
        board = Blackboard()
        report = simulate_congest_via_players(
            warmup_family,
            inputs,
            _decider_factory(warmup_family.gap.low_threshold),
            blackboard=board,
        )
        assert board.total_bits == report.blackboard_bits
        # Every write is attributed to a player index.
        assert {entry.player for entry in board.entries()} <= {0, 1}

    def test_cut_matches_construction(self, warmup_family):
        params = warmup_family.params
        inputs = pairwise_disjoint_inputs(params.k, params.t, rng=random.Random(6))
        report = simulate_congest_via_players(
            warmup_family,
            inputs,
            _decider_factory(warmup_family.gap.low_threshold),
        )
        assert report.cut_edges == warmup_family.construction.expected_cut_size()

    def test_non_uniform_outputs_rejected(self, warmup_family):
        params = warmup_family.params
        inputs = pairwise_disjoint_inputs(params.k, params.t, rng=random.Random(7))
        counter = iter(range(10_000))
        with pytest.raises(ValueError):
            simulate_congest_via_players(
                warmup_family,
                inputs,
                lambda: FullGraphCollection(evaluate=lambda g: next(counter)),
            )


class TestCutRoundBits:
    @pytest.fixture(scope="class")
    def report(self, warmup_family):
        params = warmup_family.params
        inputs = uniquely_intersecting_inputs(
            params.k, params.t, rng=random.Random(8)
        )
        return simulate_congest_via_players(
            warmup_family,
            inputs,
            _decider_factory(warmup_family.gap.low_threshold),
        )

    def test_series_is_dense_over_all_rounds(self, report):
        assert len(report.cut_round_bits) == report.rounds

    def test_series_sums_to_blackboard_bits(self, report):
        assert sum(report.cut_round_bits) == report.blackboard_bits

    def test_every_round_respects_per_round_bound(self, report):
        assert report.per_round_bit_bound == 2 * report.cut_edges * report.bandwidth_bits
        assert max(report.cut_round_bits) <= report.per_round_bit_bound

    def test_cut_round_bits_observed_as_histogram(self, warmup_family):
        from repro import obs

        params = warmup_family.params
        inputs = uniquely_intersecting_inputs(
            params.k, params.t, rng=random.Random(9)
        )
        with obs.recording() as recorder:
            report = simulate_congest_via_players(
                warmup_family,
                inputs,
                _decider_factory(warmup_family.gap.low_threshold),
            )
        histogram = recorder.histograms["theorem5.cut_round_bits"]
        assert histogram.count == report.rounds
        assert histogram.sum == report.blackboard_bits


def _warmup_side_inputs(params, seed):
    """The two promise-side inputs ``simulation_check_rows(seed)`` uses."""
    rng = random.Random(seed)
    return [
        ("inter", uniquely_intersecting_inputs(params.k, params.t, rng=rng)),
        ("disj", pairwise_disjoint_inputs(params.k, params.t, rng=rng)),
    ]


class TestIndependentRecount:
    """The blackboard total, recounted from a separate network's log.

    :func:`simulate_congest_via_players` writes the blackboard and the
    per-round series in one pass of its own; this recount builds a
    second network with the same seed and bandwidth, and folds its
    message log with :func:`per_round_cut_traffic` instead.
    """

    @pytest.mark.parametrize("side", ["inter", "disj"])
    def test_log_fold_matches_report(self, warmup_family, side):
        from repro.congest import CongestNetwork
        from repro.framework import node_membership, per_round_cut_traffic

        inputs = dict(_warmup_side_inputs(warmup_family.params, 1))[side]
        factory = _decider_factory(warmup_family.gap.low_threshold)
        report = simulate_congest_via_players(warmup_family, inputs, factory)

        network = CongestNetwork(
            warmup_family.build(inputs), factory, bandwidth_multiplier=3, seed=0
        )
        network.message_log_enabled = True
        rounds = network.run_until_quiescent()
        membership = node_membership(warmup_family.partition())
        traffic = per_round_cut_traffic(
            network.message_log, membership, num_rounds=rounds
        )
        series = [bits for _, _, bits in traffic]

        assert rounds == report.rounds
        assert series == report.cut_round_bits
        assert sum(series) == report.blackboard_bits
        assert sum(series) <= report.analytic_bit_bound
        # EXPERIMENTS.md, Theorem 5: 98 rounds, cut 18, 35,400 <= 52,920.
        assert (report.rounds, report.cut_edges) == (98, 18)
        assert (sum(series), report.analytic_bit_bound) == (35_400, 52_920)


class TestTranscriptPin:
    """The whole simulated transcript, pinned by one digest.

    Covers seeds 0-4 of ``simulation_check_rows`` and, per promise
    side, the round count, the per-round cut series and the player,
    size and label of every blackboard entry.  Any change to which
    messages cross the cut, when, or how large they are changes it.
    """

    DIGEST = "fa0aeffd2db54f1568165fcda71f965cb59d8bb30727021d67c7f3afff269b3f"

    def test_digest(self, warmup_family):
        import hashlib
        import json

        from repro.core.suite import simulation_check_rows

        decider = _decider_factory(warmup_family.gap.low_threshold)
        document = []
        for seed in range(5):
            sides = []
            for _, inputs in _warmup_side_inputs(warmup_family.params, seed):
                board = Blackboard()
                report = simulate_congest_via_players(
                    warmup_family, inputs, decider, blackboard=board
                )
                sides.append(
                    {
                        "rounds": report.rounds,
                        "cut_round_bits": report.cut_round_bits,
                        "board": [
                            [entry.player, len(entry.bits), entry.label]
                            for entry in board.entries()
                        ],
                    }
                )
            document.append({"rows": simulation_check_rows(seed), "sides": sides})
        text = json.dumps(document, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == self.DIGEST
