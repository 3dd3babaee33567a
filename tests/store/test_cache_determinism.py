"""Results do not change with cache mode: the same witness, store or no store.

Only whole work units are cached, so a construction built inside a
store is built exactly as without one, in the same node order, and the
exact solver breaks ties between optima the same way.  A store that
handed back a gadget graph in its canonical (sorted) node order would
change which optimum is returned on some inputs, though never its
weight.
"""

import random

import pytest

from repro.commcc import BitString
from repro.gadgets import GadgetParameters, LinearConstruction, QuadraticConstruction
from repro.maxis import max_weight_independent_set
from repro.store import using_store

INPUTS_PER_CASE = 40

CASES = [
    pytest.param(QuadraticConstruction, 2, id="quadratic-t2"),
    pytest.param(QuadraticConstruction, 3, id="quadratic-t3"),
    pytest.param(LinearConstruction, 2, id="linear-t2"),
    pytest.param(LinearConstruction, 3, id="linear-t3"),
    pytest.param(LinearConstruction, 4, id="linear-t4"),
]


def _random_inputs(construction, params, rng):
    # Linear inputs are weights (length k), quadratic ones edges (k^2).
    length = params.k if construction is LinearConstruction else params.k ** 2
    return [BitString(length, rng.getrandbits(length)) for _ in range(params.t)]


def _witness(build, inputs):
    return sorted(max_weight_independent_set(build.apply_inputs(inputs)).nodes)


@pytest.mark.parametrize("construction, t", CASES)
def test_witnesses_match_with_the_store_off(construction, t):
    params = GadgetParameters(ell=2, alpha=1, t=t)
    rng = random.Random(2900 + t)
    samples = [_random_inputs(construction, params, rng) for _ in range(INPUTS_PER_CASE)]
    plain = construction(params)
    expected = [_witness(plain, inputs) for inputs in samples]
    with using_store("memory"):
        first = construction(params)
        second = construction(params)
        for build in (second, first):
            assert [_witness(build, inputs) for inputs in samples] == expected
