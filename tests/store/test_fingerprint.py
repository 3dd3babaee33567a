"""Code fingerprints: the self-invalidation half of the content address.

A key bakes in a hash of the *source* of every module the computation
depends on, so editing a cached code path silently becomes a cache
miss instead of silently serving stale results.
"""

import importlib

from repro.store import (
    MISS,
    MemoryBackend,
    ResultStore,
    clear_fingerprint_cache,
    combined_fingerprint,
    module_fingerprint,
)


class TestModuleFingerprint:
    def test_stable_within_a_process(self):
        assert module_fingerprint("repro.graphs.graph") == module_fingerprint(
            "repro.graphs.graph"
        )

    def test_distinct_modules_differ(self):
        assert module_fingerprint("repro.graphs.graph") != module_fingerprint(
            "repro.graphs.serialize"
        )

    def test_unresolvable_module_gets_sentinel(self):
        assert (
            module_fingerprint("repro.no_such_module_xyz")
            == "unresolved:repro.no_such_module_xyz"
        )

    def test_combined_is_order_insensitive(self):
        names = ["repro.graphs.graph", "repro.graphs.serialize"]
        assert combined_fingerprint(names) == combined_fingerprint(
            list(reversed(names))
        )

    def test_combined_differs_from_single(self):
        one = combined_fingerprint(["repro.graphs.graph"])
        two = combined_fingerprint(
            ["repro.graphs.graph", "repro.graphs.serialize"]
        )
        assert one != two


class TestEditInvalidates:
    """The acceptance property: editing a module's source forces a miss."""

    def _write_module(self, tmp_path, body):
        (tmp_path / "fp_probe_module.py").write_text(body)
        importlib.invalidate_caches()

    def test_source_edit_changes_fingerprint(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(tmp_path))
        self._write_module(tmp_path, "VALUE = 1\n")
        clear_fingerprint_cache()
        before = module_fingerprint("fp_probe_module")
        self._write_module(tmp_path, "VALUE = 2\n")
        clear_fingerprint_cache()
        after = module_fingerprint("fp_probe_module")
        assert before != after
        assert not before.startswith("unresolved:")
        clear_fingerprint_cache()

    def test_source_edit_changes_memoized_combined_fingerprint(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.syspath_prepend(str(tmp_path))
        names = ["fp_probe_module", "repro.graphs.graph"]
        self._write_module(tmp_path, "VALUE = 1\n")
        clear_fingerprint_cache()
        before = combined_fingerprint(names)
        self._write_module(tmp_path, "VALUE = 2\n")
        # Memoized until cleared: a running sweep sees one fingerprint.
        assert combined_fingerprint(names) == before
        clear_fingerprint_cache()
        assert combined_fingerprint(names) != before
        clear_fingerprint_cache()

    def test_source_edit_forces_store_miss(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(tmp_path))
        self._write_module(tmp_path, "def compute():\n    return 1\n")
        clear_fingerprint_cache()
        store = ResultStore(MemoryBackend())
        key = store.key_for("probe.value", {"x": 1}, ["fp_probe_module"])
        store.put(key, "probe.value", "json", 1)
        assert store.get(key) == 1
        # Edit the dependency: the same logical computation now derives
        # a different content address, so the old entry is unreachable.
        self._write_module(tmp_path, "def compute():\n    return 2\n")
        clear_fingerprint_cache()
        new_key = store.key_for("probe.value", {"x": 1}, ["fp_probe_module"])
        assert new_key != key
        assert store.get(new_key) is MISS
        clear_fingerprint_cache()
