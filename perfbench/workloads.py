"""The benchmark's workloads and the seeded inputs they feed the program.

Every workload runs the same three phases (see ``README.md``): the
paper sweeps with the cache off, the small grid through a fresh disk
store, and open-loop HTTP traffic to ``repro serve``'s application.  The
workloads differ only in the grid of the uncached sweep; the cached
sweep and the serve traffic are the same in both.  All randomness comes
from the ``--seed`` argument; the program only ever sees the generated
units and request bodies.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List

from loadgen import Planned


class Workload:
    """One grid for the uncached sweep: Theorem 1 and Theorem 2 up to a ``t``."""

    def __init__(self, name: str, theorem1_max_t: int, theorem2_max_t: int) -> None:
        self.name = name
        self.theorem1_max_t = theorem1_max_t
        self.theorem2_max_t = theorem2_max_t


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # The paper's grid: Theorem 1 at t=2..5 and every point of
        # ``THEOREM2_POINTS``; the exact solver carries the sweep's cost.
        Workload("full_grid", theorem1_max_t=5, theorem2_max_t=4),
        # The small grid the cached sweep also uses: per-call overheads
        # and the CONGEST simulation weigh as much as the search.
        Workload("small_grid", theorem1_max_t=4, theorem2_max_t=3),
    )
}

#: Work units per sweep: Theorem 1 and Theorem 2 at the CLI's default
#: sample counts (2 and 1 per promise side).
THEOREM1_SAMPLES = 2
THEOREM2_SAMPLES = 1


def seed_stream(seed: int, purpose: str) -> random.Random:
    """The run's randomness for one purpose, derived from ``--seed`` alone.

    Separate streams keep each input independent of how many passes of
    the other phases the time budget allowed.
    """
    return random.Random(f"perfbench:{seed}:{purpose}")


def sweep_units(workload: Workload, unit_seed: int) -> List[Any]:
    """The Theorem 1 sweep and the Theorem 2 grid for one input seed."""
    from repro.parallel.engine import theorem1_units, theorem2_units

    return theorem1_units(
        workload.theorem1_max_t, num_samples=THEOREM1_SAMPLES, seed=unit_seed
    ) + theorem2_units(
        workload.theorem2_max_t, num_samples=THEOREM2_SAMPLES, seed=unit_seed
    )


#: The cached sweep's grid in every workload: Theorem 1 up to t=4 and
#: Theorem 2 up to t=3, where a cold pass takes about a second.
CACHED_THEOREM1_MAX_T = 4
CACHED_THEOREM2_MAX_T = 3


def cached_units(unit_seed: int) -> List[Any]:
    """The cached sweep's units for one input seed."""
    from repro.parallel.engine import theorem1_units, theorem2_units

    return theorem1_units(
        CACHED_THEOREM1_MAX_T, num_samples=THEOREM1_SAMPLES, seed=unit_seed
    ) + theorem2_units(
        CACHED_THEOREM2_MAX_T, num_samples=THEOREM2_SAMPLES, seed=unit_seed
    )


# ----------------------------------------------------------------------
# Serve traffic
# ----------------------------------------------------------------------

#: The serve traffic repeats the 12-request cycle of ``_request_pattern``
#: in ``benchmarks/bench_serve.py``, the repository's own serve load
#: plan: 5 gadget builds, 3 claim checks, 2 MaxIS solves, one /health
#: and one /metrics.  Its bodies are the same: the linear gadget at
#: ``GADGET_A`` and ``GADGET_B``, and the first linear claim at
#: ``GADGET_A`` with 2 samples, repeated in every cycle.
CYCLE = (
    "gadget_a", "gadget_a", "claim", "gadget_b", "claim", "health",
    "maxis", "gadget_a", "maxis", "claim", "metrics", "gadget_b",
)
GADGET_A = {"ell": 2, "alpha": 1, "t": 2}
GADGET_B = {"ell": 2, "alpha": 1, "t": 3}
CLAIM_SAMPLES = 2

#: Two departures from that plan, both from the benchmark's issue
#: ("exact solves on distinct seeded gadget instances", "near-simultaneous
#: duplicates"): each cycle's MaxIS pair is an exact solve of a new
#: instance of the ``GADGET_A`` graph (so each cycle has one miss), and
#: its second request is due with its first, so it can coalesce onto it.
#: bench_serve.py gets its duplicates concurrent by dealing the plan to
#: 12 closed-loop workers; an open loop has to schedule them so.
MAXIS_SLOTS = (6, 8)


class MaxISPool:
    """Every gadget instance ``G_x`` of the serve gadget, as request bodies.

    The fixed graph is built and serialized once; each instance only
    rewrites the weights of the ``A`` nodes (``ell`` where the player's
    input bit is set), so every pattern gives a distinct graph, hence a
    distinct store key.  ``GADGET_A`` has 6 input bits: 64 instances.
    """

    def __init__(self, construction: Any) -> None:
        from repro.graphs.serialize import encode_node, graph_to_dict

        params = construction.params
        t, ell = params.t, params.ell
        document = graph_to_dict(construction.graph)
        position = {
            json.dumps(entry["id"]): index
            for index, entry in enumerate(document["nodes"])
        }
        a_positions = [
            position[json.dumps(encode_node(construction.a_node(i, m)))]
            for i in range(t)
            for m in range(params.k)
        ]
        edges = json.dumps(document["edges"])
        self.bodies: List[bytes] = []
        for pattern in range(1 << len(a_positions)):
            nodes = [dict(entry) for entry in document["nodes"]]
            for bit, index in enumerate(a_positions):
                if (pattern >> bit) & 1:
                    nodes[index]["weight"] = ell
            self.bodies.append(
                (
                    '{"graph": {"edges": ' + edges + ', "nodes": '
                    + json.dumps(nodes) + '}, "mode": "exact"}'
                ).encode("utf-8")
            )


def _post(due_s: float, path: str, document: Dict[str, Any], check: Any) -> Planned:
    return Planned(due_s, "POST", path, json.dumps(document).encode("utf-8"), check)


class Traffic:
    """Open-loop traffic: the request cycle at a given rate, cut into chunks.

    Arrivals are evenly spaced, except that each MaxIS pair shares a due
    time.  Every chunk goes to a fresh store, so each starts over; the
    random stream runs on, so chunks draw their instances in another
    order.  A chunk of more than 64 cycles repeats instances (hits).
    """

    def __init__(self, pool: MaxISPool, rng: random.Random) -> None:
        from repro.core import linear_claim_names
        from repro.gadgets import GadgetParameters

        self.pool = pool
        self.rng = rng
        self.claim = linear_claim_names(GadgetParameters(**GADGET_A))[0]

    def chunk(self, rate: float, duration_s: float) -> List[Planned]:
        """``duration_s`` of traffic at ``rate`` requests/s; due times start at 0."""
        order = self.rng.sample(range(len(self.pool.bodies)), len(self.pool.bodies))
        plan: List[Planned] = []
        for slot in range(int(rate * duration_s)):
            cycle, position = divmod(slot, len(CYCLE))
            kind = CYCLE[position]
            due = (slot - (position - MAXIS_SLOTS[0] if position in MAXIS_SLOTS else 0)) / rate
            if kind == "maxis":
                index = order[cycle % len(order)]
                plan.append(Planned(due, "POST", "/v1/maxis", self.pool.bodies[index], ("maxis", index)))
            elif kind in ("gadget_a", "gadget_b"):
                params = GADGET_A if kind == "gadget_a" else GADGET_B
                document = {"construction": "linear", "params": params}
                plan.append(_post(due, "/v1/gadgets", document, ("gadget", json.dumps(params))))
            elif kind == "claim":
                document = {"family": "linear", "name": self.claim, "params": GADGET_A,
                            "num_samples": CLAIM_SAMPLES}
                plan.append(_post(due, "/v1/claims", document, ("claim", self.claim)))
            else:
                plan.append(Planned(due, "GET", f"/{kind}", None, None))
        plan.sort(key=lambda entry: entry.due_s)
        return plan


def expected_result(check: Any, pool: MaxISPool) -> Any:
    """The store-codec payload ``execute_unit`` gives for a request body.

    Computed in this process with the cache off, independently of the
    service, and compared with the ``result`` field of every 200.
    """
    from repro.graphs.serialize import graph_from_dict
    from repro.parallel.jobs import execute_unit
    from repro.store import JOB_SPECS, get_codec

    family, detail = check
    if family == "maxis":
        document = json.loads(pool.bodies[detail])
        kind = "maxis_solve"
        kwargs = {"graph": graph_from_dict(document["graph"]), "mode": "exact"}
    elif family == "gadget":
        kind = "gadget_graph"
        kwargs = dict(json.loads(detail), construction="linear", k=None)
    else:
        kind = "linear_claim"
        kwargs = dict(GADGET_A, k=None, name=detail, num_samples=CLAIM_SAMPLES)
    value = execute_unit(kind, kwargs)
    return json.loads(get_codec(JOB_SPECS[kind].codec).encode(value))
