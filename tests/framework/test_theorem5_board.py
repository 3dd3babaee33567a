"""The Theorem 5 simulation lets go of its blackboard when it returns.

Every node context points back at its network, so the network lives
until the cyclic garbage collector runs.  Anything the network refers
to lives as long.  The cut counter that writes the blackboard is passed
to the run as an argument, never stored on the network, so a caller's
blackboard is freed by reference counting alone.
"""

import gc
import random
import weakref

from repro.commcc import Blackboard, pairwise_disjoint_inputs
from repro.congest import FullGraphCollection
from repro.framework import simulate_congest_via_players
from repro.gadgets import GadgetParameters, LinearMaxISFamily
from repro.maxis import max_independent_set_weight


def test_blackboard_freed_without_the_cycle_collector():
    family = LinearMaxISFamily(GadgetParameters(ell=2, alpha=1, t=2), warmup=True)
    params = family.params
    inputs = pairwise_disjoint_inputs(params.k, params.t, rng=random.Random(1))
    low = family.gap.low_threshold
    factory = FullGraphCollection.factory(
        lambda graph: max_independent_set_weight(graph) <= low
    )
    board = Blackboard()
    ref = weakref.ref(board)
    gc.collect()
    gc.disable()
    try:
        report = simulate_congest_via_players(
            family, inputs, factory, blackboard=board
        )
        assert board.total_bits == report.blackboard_bits > 0
        del board
        assert ref() is None
    finally:
        gc.enable()
