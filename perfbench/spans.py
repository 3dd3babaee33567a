"""Per-layer spans recorded from the benchmark's side of each layer.

The traced run replaces the public entry points of each ``repro``
layer with thin wrappers that record one span per call: layer name,
phase, start, end and the enclosing span on the same thread.  Spans stay
in memory; when the run ends, :meth:`Tracer.layer_totals` derives each
layer's *self* time, a span's duration minus the time its child spans
cover, and its call count (a call nested directly inside a span of the
same layer, such as ``key_for`` calling ``derive_key``, is one call).

Exact counts come from the repository's own recorder (``repro.obs``):
:meth:`Tracer.install` turns it on, and :meth:`Tracer.begin` books its
counters under the phase that ran before clearing them for the next.

Nothing under ``src/`` changes.  Wrappers are installed by
:meth:`Tracer.install` and removed by :meth:`Tracer.uninstall`; the
untraced runs never install them.

Module-level functions are imported by name into other modules (``from
.kernel import kernelize``), so a function is patched in every loaded
``repro`` module that binds the original object.  Methods are patched on
their class.  ``Application.dispatch`` is a coroutine that interleaves
with others on the event loop, so it is timed as a detached interval,
not as a node of the span tree.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers whose calls and self time the traced run reports, in order.
#: Besides these, ``parallel.pool_wait`` spans the parent blocked on the
#: pool's worker processes (whose own work is not traced): it is waiting,
#: reported on its own, so it neither poses as busy time nor inflates the
#: self time of ``run_units`` around it.
LAYERS = (
    "gadgets.build",
    "gadgets.apply_inputs",
    "graphs.copy",
    "graphs.index_form",
    "maxis.kernel",
    "maxis.search",
    "codes.mapping",
    "framework.cut",
    "framework.simulate",
    "core.experiment",
    "parallel.run_units",
    "parallel.unit",
    "store.key",
    "store.fingerprint",
    "store.encode",
    "store.decode",
    "store.backend.put",
    "store.backend.get",
    "serve.compute",
)

#: The recorder's counters booked per phase (and per stage).
COUNTERS = (
    "maxis.exact.nodes_expanded",
    "theorem5.blackboard_bits",
    "cache.bytes_written",
    "cache.hit",
    "cache.miss",
)

#: Threads of ``repro.serve`` (event loop and dispatcher) start with this.
_SERVE_THREAD_PREFIX = "repro-serve"


class Tracer:
    """In-memory spans plus the recorder's counts, filed per phase."""

    def __init__(self) -> None:
        #: ``[layer, phase, start, end, parent]`` per finished span.
        self.spans: List[list] = []
        #: Detached ``(phase, bench id, start, end)`` handler intervals.
        self.handlers: List[Tuple[str, Optional[str], float, float]] = []
        #: p99 of the recorder's ``serve.queue_wait_ms`` per traced phase.
        self.queue_wait_p99: Dict[str, List[float]] = defaultdict(list)
        #: Exact counts, keyed ``(phase, name)``; a counter booked in a
        #: stage is named ``<counter>.<stage>``.
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        #: Set by :meth:`begin`; spans and counts are filed under it.
        self.phase = "setup"
        #: Sub-label for hit-ratio accounting (``cold``/``warm``).
        self.stage = ""
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: Any,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """A span-recording stand-in for ``fn``.

        ``layer`` is a name or a zero-argument callable returning one;
        ``after(args, result)`` reads counts off a finished call.
        """
        tracer = self
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            name = layer() if callable(layer) else layer
            record = [name, tracer.phase, time.perf_counter(), 0.0, stack[-1] if stack else None]
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
                spans.append(record)
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.phase, name)] += amount

    def begin(self, phase: str, stage: str = "") -> None:
        """File what follows under ``phase`` and ``stage``.

        While installed, the recorder's counters so far are booked under
        the phase that ends here, and then cleared.
        """
        from repro import obs

        if self._patches:
            recorder = obs.get_recorder()
            suffix = f".{self.stage}" if self.stage else ""
            for name in COUNTERS:
                self.count(name + suffix, recorder.counters.get(name, 0))
            waits = recorder.histograms.get("serve.queue_wait_ms")
            if waits is not None and waits.count:
                self.queue_wait_p99[self.phase].append(waits.quantile(0.99))
            recorder.clear_closed()
        self.phase = phase
        self.stage = stage

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_method(self, cls: Any, name: str, layer: Any, after: Any = None) -> None:
        self._patch(cls, name, self.wrap(cls.__dict__[name], layer, after))

    def _hook_method(self, cls: Any, name: str, before: Callable[[tuple], None]) -> None:
        """Run ``before(args)`` ahead of a method, recording no span."""
        method = cls.__dict__[name]

        @functools.wraps(method)
        def hooked(*args: Any, **kwargs: Any) -> Any:
            before(args)
            return method(*args, **kwargs)

        self._patch(cls, name, hooked)

    def _patch_function(self, fn: Any, layer: Any, after: Any = None) -> None:
        traced = self.wrap(fn, layer, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attribute, traced)

    def install(self) -> None:
        """Wrap every layer's public entry points and turn the recorder on."""
        from repro import obs
        from repro.codes import code_mapping
        from repro.core.experiments import (
            LinearLowerBoundExperiment,
            QuadraticLowerBoundExperiment,
        )
        from repro.framework import cut, theorem5
        from repro.gadgets import LinearConstruction, QuadraticConstruction
        from repro.graphs import WeightedGraph
        from repro.maxis import exact, kernel
        from repro.parallel import backends, engine, jobs
        from repro.serve.app import Application
        from repro.store import codecs, fingerprint, keys
        from repro.store.backends import DiskBackend, MemoryBackend
        from repro.store.store import ResultStore

        if self._patches:
            raise RuntimeError("tracer already installed")
        recorder = obs.get_recorder()
        recorder.clear_closed()
        recorder.enabled = True
        for cls in (LinearConstruction, QuadraticConstruction):
            self._patch_method(cls, "__init__", "gadgets.build")
            self._patch_method(cls, "apply_inputs", "gadgets.apply_inputs")
        self._patch_method(WeightedGraph, "copy", "graphs.copy")
        self._patch_method(WeightedGraph, "solver_index_form", "graphs.index_form")
        self._patch_function(kernel.kernelize, "maxis.kernel")
        self._patch_function(exact.max_weight_independent_set, "maxis.search")
        self._patch_function(code_mapping.code_mapping_for_parameters, "codes.mapping")
        self._patch_function(cut.cut_size, "framework.cut")
        self._patch_function(theorem5.simulate_congest_via_players, "framework.simulate")
        for cls in (LinearLowerBoundExperiment, QuadraticLowerBoundExperiment):
            self._patch_method(cls, "run", "core.experiment")
        self._patch_function(engine.run_units, "parallel.run_units")
        self._patch_function(
            jobs.execute_unit,
            lambda: "serve.compute"
            if threading.current_thread().name.startswith(_SERVE_THREAD_PREFIX)
            else "parallel.unit",
        )
        self._patch_method(
            backends.ProcessPoolBackend, "run", "parallel.pool_wait",
            after=lambda args, _: self.count("pool_workers", args[0].workers),
        )
        self._hook_method(backends.SerialBackend, "run", self._note_serial_fallback)
        self._patch_method(ResultStore, "key_for", "store.key")
        self._patch_function(keys.derive_key, "store.key")
        self._patch_function(fingerprint.combined_fingerprint, "store.fingerprint")
        for codec_class in {type(codec) for codec in codecs.CODECS.values()}:
            self._patch_method(codec_class, "encode", "store.encode")
            self._patch_method(codec_class, "decode", "store.decode")
        for backend in (DiskBackend, MemoryBackend):
            self._patch_method(backend, "put", "store.backend.put")
            self._patch_method(backend, "get", "store.backend.get")
        self._patch(Application, "dispatch", self._timed_dispatch(Application.dispatch))

    def uninstall(self) -> None:
        """Book the last phase, turn the recorder off, restore every
        patched attribute, newest first."""
        from repro import obs

        self.begin("idle")
        obs.get_recorder().enabled = False
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _note_serial_fallback(self, args: tuple) -> None:
        """A serial run nested inside a pool run means the pool fell back."""
        if any(record[0] == "parallel.pool_wait" for record in self._stack()):
            self.count("pool_fallbacks")

    def _timed_dispatch(self, dispatch: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(dispatch)
        async def traced(app: Any, request: Any) -> Any:
            start = time.perf_counter()
            try:
                return await dispatch(app, request)
            finally:
                tracer.handlers.append(
                    (tracer.phase, request.headers.get("x-bench-id"), start, time.perf_counter())
                )

        return traced

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def layer_totals(self) -> Dict[Tuple[str, str], List[float]]:
        """``(phase, layer) -> [calls, self seconds]`` over every span.

        A span's self time is its duration minus the durations of its
        direct children; a child of the same layer as its parent does
        not count as a call of its own.
        """
        child_time: Dict[int, float] = defaultdict(float)
        for record in self.spans:
            parent = record[4]
            if parent is not None:
                child_time[id(parent)] += record[3] - record[2]
        totals: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0])
        for record in self.spans:
            layer, phase, start, end, parent = record
            entry = totals[(phase, layer)]
            entry[1] += (end - start) - child_time[id(record)]
            if parent is None or parent[0] != layer:
                entry[0] += 1
        return totals
