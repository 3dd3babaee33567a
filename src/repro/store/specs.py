"""Cache specifications: which modules fingerprint which job kinds.

Each cached computation declares the modules whose source defines its
result; editing any of them changes the combined fingerprint and
silently invalidates every dependent entry (see
:mod:`repro.store.fingerprint`).  The lists are deliberately coarse —
a false invalidation costs one recompute, a missed one serves stale
results — and layered: gadget graphs depend on the code layer that
spells their codewords, sweep points depend on everything below them.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

#: The code layer: field tables, Reed–Solomon codebooks, code-mappings.
CODE_MODULES: Tuple[str, ...] = (
    "repro.codes.code_mapping",
    "repro.codes.gf",
    "repro.codes.polynomials",
    "repro.codes.reed_solomon",
)

#: Graph representation + serializer (payload shape is part of the key).
GRAPH_MODULES: Tuple[str, ...] = (
    "repro.graphs.graph",
    "repro.graphs.serialize",
)

#: Gadget builders (Figures 1–6) and everything they build on.
GADGET_MODULES: Tuple[str, ...] = CODE_MODULES + GRAPH_MODULES + (
    "repro.gadgets.base_graph",
    "repro.gadgets.linear",
    "repro.gadgets.node_ids",
    "repro.gadgets.parameters",
    "repro.gadgets.quadratic",
)

#: The exact MaxIS solver and its result validation.
MAXIS_MODULES: Tuple[str, ...] = GRAPH_MODULES + (
    "repro.maxis.exact",
    "repro.maxis.result",
)

#: Whole sweep units: experiment pipelines over gadgets + solver +
#: input sampling + claim verifiers.
SWEEP_MODULES: Tuple[str, ...] = tuple(
    sorted(
        set(GADGET_MODULES)
        | set(MAXIS_MODULES)
        | {
            "repro.commcc.bitstring",
            "repro.commcc.inputs",
            "repro.core.claims",
            "repro.core.experiments",
            "repro.core.serialize",
            "repro.framework.corollary1",
            "repro.framework.gap",
            "repro.parallel.jobs",
        }
    )
)


class JobCacheSpec(NamedTuple):
    """How one parallel job kind caches: payload codec + fingerprinted modules."""

    codec: str
    modules: Tuple[str, ...]


#: Work-unit kinds the parallel engine caches whole.  ``probe`` (the
#: test kind) is deliberately absent: units without a spec always run.
JOB_SPECS: Dict[str, JobCacheSpec] = {
    "theorem1_point": JobCacheSpec("report", SWEEP_MODULES),
    "theorem2_point": JobCacheSpec("report", SWEEP_MODULES),
    "linear_claim": JobCacheSpec("claim_check", SWEEP_MODULES),
    "quadratic_claim": JobCacheSpec("claim_check", SWEEP_MODULES),
    "maxis_weight": JobCacheSpec("json", MAXIS_MODULES),
    "gadget_graph": JobCacheSpec("graph", GADGET_MODULES),
    "maxis_solve": JobCacheSpec("json", MAXIS_MODULES),
}
