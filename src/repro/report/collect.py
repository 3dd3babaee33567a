"""Join the statement registry against recorded run data.

The collector reads what previous runs left behind — the benchmark run
manifests (``benchmarks/results/<name>.json``), the ``BENCH_*.json``
perf trajectories, and the seeded Theorem 5 telemetry — and joins them
against :mod:`repro.report.registry` into one plain-dict report model
that :mod:`repro.report.html` renders.  Everything here is a pure
function of the input files plus the current git SHA, so the model
(and hence the rendered report) is byte-stable across reruns on
identical inputs.

Coverage status per statement:

``verified``
    at least one cited manifest exists and was produced at the current
    commit;
``stale``
    cited manifests exist, but none match the current commit — the
    evidence predates the code;
``unverified``
    the statement is mapped to checks, but no cited manifest has been
    published yet (run ``pytest benchmarks/`` to produce them);
``unmapped``
    no executable checks at all — the registry invariant CI enforces
    to zero.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple

from ..obs.manifest import run_provenance
from . import registry

#: Bumped when the collected report model changes shape.
REPORT_SCHEMA_VERSION = 1


def collect_manifests(
    results_dir: pathlib.Path,
) -> Dict[str, Dict[str, Any]]:
    """``manifest name -> {"path", "manifest"}`` for every run manifest.

    Scans ``*.json`` in ``results_dir``, skipping ``BENCH_*``
    trajectories and stale ``DEEPPROF_*`` documents left by an older
    sampling profiler (both carry a ``schema_version`` but are not run
    manifests) and anything
    unparseable or without a ``schema_version`` — a corrupt sidecar
    must not take the report down.  Keyed by the manifest's own
    ``name`` field; a duplicate name keeps the lexically later file
    (deterministic, and in practice names are unique).
    """
    found: Dict[str, Dict[str, Any]] = {}
    if not results_dir.is_dir():
        return found
    for path in sorted(results_dir.glob("*.json")):
        if path.name.startswith(("BENCH_", "DEEPPROF_")):
            continue
        try:
            manifest = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            continue
        if not isinstance(manifest, dict) or "schema_version" not in manifest:
            continue
        name = manifest.get("name") or path.stem
        found[name] = {"path": str(path), "manifest": manifest}
    return found


def manifest_wall_s(manifest: Dict[str, Any]) -> Optional[float]:
    """A run's wall time from its span aggregates, in seconds.

    Manifest spans are ``name -> {count, total_s}`` aggregates where
    nested spans double-count into their parents, so the largest total
    — the outermost phase — is the closest thing to the run's wall
    time.  ``None`` when the run recorded no spans.
    """
    totals = [
        entry.get("total_s", 0.0) for entry in (manifest.get("spans") or {}).values()
    ]
    return max(totals) if totals else None


def _parameter_summary(manifest: Dict[str, Any]) -> str:
    parameters = manifest.get("parameters") or {}
    return ", ".join(f"{key}={parameters[key]}" for key in sorted(parameters))


def coverage_rows(
    manifests: Dict[str, Dict[str, Any]], current_sha: str
) -> List[Dict[str, Any]]:
    """One coverage-matrix row per registered paper statement."""
    rows: List[Dict[str, Any]] = []
    for statement in registry.all_statements():
        cited = statement.manifest_names()
        present = [name for name in cited if name in manifests]
        current = [
            name
            for name in present
            if manifests[name]["manifest"]
            .get("provenance", {})
            .get("git_sha")
            == current_sha
        ]
        if not statement.checks:
            status = "unmapped"
        elif current:
            status = "verified"
        elif present:
            status = "stale"
        else:
            status = "unverified"
        evidence = current[0] if current else (present[0] if present else None)
        row: Dict[str, Any] = {
            "statement_id": statement.statement_id,
            "kind": statement.kind,
            "section": statement.section,
            "title": statement.title,
            "checks": [
                {"kind": check.kind, "ref": check.ref, "manifest": check.manifest}
                for check in statement.checks
            ],
            "status": status,
            "manifest": evidence,
            "git_sha": None,
            "wall_s": None,
            "parameters": "",
        }
        if evidence is not None:
            manifest = manifests[evidence]["manifest"]
            row["git_sha"] = manifest.get("provenance", {}).get("git_sha")
            row["wall_s"] = manifest_wall_s(manifest)
            row["parameters"] = _parameter_summary(manifest)
        rows.append(row)
    return rows


def _load_trajectories(
    results_dir: pathlib.Path,
) -> List[Tuple[pathlib.Path, Dict[str, Any]]]:
    """The ``BENCH_*.json`` timeline, through the runner's API when importable.

    ``benchmarks.runner`` is only importable from the repository root;
    collected from anywhere else, fall back to the same
    mtime-then-name ordering inline.
    """
    try:
        from benchmarks.runner import discover_trajectories

        return discover_trajectories(results_dir)
    except ImportError:
        pass
    entries: List[Tuple[float, str, pathlib.Path]] = []
    if results_dir.is_dir():
        for path in results_dir.glob("BENCH_*.json"):
            entries.append((path.stat().st_mtime, path.name, path))
    found: List[Tuple[pathlib.Path, Dict[str, Any]]] = []
    for _, _, path in sorted(entries):
        try:
            record = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            continue
        if (
            isinstance(record, dict)
            and record.get("kind") == "bench_trajectory"
            and "schema_version" in record
        ):
            found.append((path, record))
    return found


def bench_trajectories(results_dir: pathlib.Path) -> Dict[str, Any]:
    """Per-bench median timelines across every trajectory record."""
    timeline = _load_trajectories(results_dir)
    series: Dict[str, List[float]] = {}
    latest: Dict[str, Dict[str, Any]] = {}
    shas: List[str] = []
    for _, record in timeline:
        shas.append(record.get("provenance", {}).get("git_sha", "unknown"))
        for name, entry in sorted(record.get("benches", {}).items()):
            wall = entry.get("wall", {})
            if "median_s" not in wall:
                continue
            series.setdefault(name, []).append(wall["median_s"])
            latest[name] = {
                "median_s": wall["median_s"],
                "iqr_s": wall.get("iqr_s"),
                "repeats": wall.get("repeats"),
            }
    return {"count": len(timeline), "series": series, "latest": latest, "shas": shas}


def cache_totals(manifests: Dict[str, Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Aggregate ``cache.*`` counters across all run manifests."""
    hits = misses = bytes_written = 0
    for entry in manifests.values():
        counters = entry["manifest"].get("counters") or {}
        hits += int(counters.get("cache.hit", 0))
        misses += int(counters.get("cache.miss", 0))
        bytes_written += int(counters.get("cache.bytes_written", 0))
    if not (hits or misses or bytes_written):
        return None
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / total if total else None,
        "bytes_written": bytes_written,
    }


def stall_totals(
    manifests: Dict[str, Dict[str, Any]],
) -> Optional[Dict[str, Any]]:
    """Aggregate watchdog stall evidence across all run manifests.

    Sums the ``parallel.stalled_units`` counter and collects every
    structured ``stalls`` report (see the "Live monitoring" section of
    ``docs/OBSERVABILITY.md``), tagged with the manifest it came from.
    ``None`` when no manifest recorded a stall — the common, healthy
    case — so the dashboard can omit the section entirely.
    """
    stalled_units = 0
    requeued_units = 0
    reports: List[Dict[str, Any]] = []
    for name, entry in sorted(manifests.items()):
        manifest = entry["manifest"]
        counters = manifest.get("counters") or {}
        stalled_units += int(counters.get("parallel.stalled_units", 0))
        requeued_units += int(counters.get("parallel.requeued_units", 0))
        for report in manifest.get("stalls") or []:
            reports.append(dict(report, manifest=name))
    if not (stalled_units or reports):
        return None
    return {
        "stalled_units": max(stalled_units, len(reports)),
        "requeued_units": requeued_units,
        "reports": reports,
    }


def collect_report(
    results_dir: pathlib.Path,
    seed: int = 0,
    include_telemetry: bool = True,
) -> Dict[str, Any]:
    """The full report model: coverage, trajectories, telemetry, cache.

    ``include_telemetry=False`` skips the seeded Theorem 5 simulation
    (the one collected input that is computed rather than read from
    disk) — useful for fast tests; the rendered report then omits the
    telemetry section.
    """
    results_dir = pathlib.Path(results_dir)
    provenance = run_provenance()
    manifests = collect_manifests(results_dir)
    coverage = coverage_rows(manifests, provenance["git_sha"])
    summary = {
        status: sum(1 for row in coverage if row["status"] == status)
        for status in ("verified", "stale", "unverified", "unmapped")
    }
    summary["total"] = len(coverage)
    telemetry: Optional[Dict[str, Any]] = None
    if include_telemetry:
        from ..cli import telemetry_data

        telemetry = telemetry_data(seed=seed)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "provenance": provenance,
        "results_dir": str(results_dir),
        "registry_problems": registry.validate(),
        "unmapped": registry.unmapped_statements(),
        "coverage": coverage,
        "summary": summary,
        "manifests": [
            {
                "name": name,
                "path": entry["path"],
                "git_sha": entry["manifest"].get("provenance", {}).get("git_sha"),
                "schema_version": entry["manifest"].get("schema_version"),
                "wall_s": manifest_wall_s(entry["manifest"]),
            }
            for name, entry in sorted(manifests.items())
        ],
        "trajectories": bench_trajectories(results_dir),
        "telemetry": telemetry,
        "cache": cache_totals(manifests),
        "stalls": stall_totals(manifests),
    }
