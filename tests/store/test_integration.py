"""The store under real producers: engine sweeps, gadgets, solvers."""

from repro import obs
from repro.core import report_to_json
from repro.gadgets import GadgetParameters, LinearConstruction
from repro.graphs import WeightedGraph
from repro.maxis import max_weight_independent_set
from repro.parallel import run_units, theorem1_units
from repro.store import using_store


def _units():
    return theorem1_units(3, num_samples=2, seed=0)


class TestEngineCaching:
    def test_warm_sweep_matches_cold_on_disk(self, tmp_path):
        with using_store("disk", path=str(tmp_path)):
            cold = run_units(_units(), workers=1)
            warm = run_units(_units(), workers=1)
        assert [report_to_json(r) for r in cold] == [
            report_to_json(r) for r in warm
        ]

    def test_warm_sweep_matches_cold_in_memory(self):
        with using_store("memory"):
            cold = run_units(_units(), workers=1)
            warm = run_units(_units(), workers=1)
        assert [report_to_json(r) for r in cold] == [
            report_to_json(r) for r in warm
        ]

    def test_warm_sweep_dispatches_nothing(self, tmp_path):
        with using_store("disk", path=str(tmp_path)):
            run_units(_units(), workers=1)
            with obs.recording() as recorder:
                run_units(_units(), workers=1)
        units = len(_units())
        assert recorder.counters["parallel.units_cached"] == units
        assert recorder.counters["cache.hit"] >= units
        # Nothing was recomputed: no solver work reached the backend.
        assert "maxis.exact.solves" not in recorder.counters

    def test_partial_warmth_runs_only_the_gap(self, tmp_path):
        all_units = _units()
        with using_store("disk", path=str(tmp_path)):
            run_units(all_units[:1], workers=1)
            with obs.recording() as recorder:
                results = run_units(all_units, workers=1)
        assert len(results) == len(all_units)
        assert recorder.counters["parallel.units_cached"] == 1

    def test_store_off_still_works(self):
        results = run_units(_units()[:1], workers=1)
        assert len(results) == 1


class TestProducerCaching:
    """Only whole units are cached: producers inside a unit never touch
    the store, because each one computes faster than its lookup would
    take (docs/CACHING.md)."""

    def test_building_inside_a_store_writes_nothing(self):
        params = GadgetParameters(ell=2, alpha=1, t=2)
        with using_store("memory") as active:
            with obs.recording() as recorder:
                first = LinearConstruction(params)
                second = LinearConstruction(params)
            stats = active.backend.stats()
        assert stats["entries"] == 0
        assert not any(name.startswith("cache.") for name in recorder.counters)
        assert list(second.graph.nodes()) == list(first.graph.nodes())
        assert second.graph.num_edges == first.graph.num_edges
        assert [layout.all_nodes() for layout in second.layouts] == [
            layout.all_nodes() for layout in first.layouts
        ]

    def test_ablation_flags_key_separately(self):
        params = GadgetParameters(ell=2, alpha=1, t=2)
        with using_store("memory"):
            standard = LinearConstruction(params)
            ablated = LinearConstruction(params, remove_matching=False)
        assert ablated.graph.num_edges > standard.graph.num_edges

    def test_solving_inside_a_store_writes_nothing(self):
        graph = WeightedGraph()
        for node, weight in (("a", 2.0), ("b", 1.0), ("c", 3.0)):
            graph.add_node(node, weight=weight)
        graph.add_edge("a", "b")
        with using_store("memory") as active:
            with obs.recording() as recorder:
                first = max_weight_independent_set(graph)
                second = max_weight_independent_set(graph)
            stats = active.backend.stats()
        assert stats["entries"] == 0
        assert not any(name.startswith("cache.") for name in recorder.counters)
        assert recorder.counters["maxis.exact.solves"] == 2
        assert second.weight == first.weight == 5.0
        assert second.nodes == first.nodes
