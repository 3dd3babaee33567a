"""Run manifests: the machine-readable record of one run.

Every benchmark (via :func:`benchmarks._util.publish`) and any caller
that wants a durable record of a run writes a *manifest*: a JSON
document with a schema version, the run's parameters, the recorder's
counter/gauge totals and histogram/timer summaries, per-phase span
timings, and provenance (git SHA, hostname, Python version).
Downstream aggregation (``BENCH_*.json`` trajectories, before/after
perf comparisons) keys off ``schema_version`` so the shape can evolve,
and relies on ``provenance`` to tell which commit/host produced a
record — two trajectory files are only comparable when their
provenance says they came from comparable environments.

Manifest payloads must be JSON-native: ``parameters`` and ``extra``
are validated up front (``ensure_json_native``) rather than silently
stringified at serialization time, so a manifest written today can be
compared field-for-field with one written months ago.
"""

from __future__ import annotations

import functools
import json
import pathlib
import platform
import socket
import subprocess
from typing import Any, Dict, Mapping, Optional, Union

from .recorder import Recorder, SCHEMA_VERSION


def ensure_json_native(value: Any, where: str = "value") -> None:
    """Raise ``TypeError`` unless ``value`` serializes losslessly to JSON.

    Accepts ``str``/``int``/``float``/``bool``/``None`` scalars,
    lists/tuples of the same, and string-keyed dicts, recursively.
    ``where`` names the offending path in the error message.
    """
    if value is None or isinstance(value, (str, int, float, bool)):
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            ensure_json_native(item, f"{where}[{index}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"manifest {where} has a non-string key: {key!r} "
                    f"({type(key).__name__})"
                )
            ensure_json_native(item, f"{where}.{key}")
        return
    raise TypeError(
        f"manifest {where} is not JSON-native: {value!r} "
        f"({type(value).__name__}); convert it before publishing"
    )


@functools.lru_cache(maxsize=1)
def _git_sha() -> str:
    """The repository's short HEAD SHA (see :func:`_tree_sha`)."""
    return _tree_sha(pathlib.Path(__file__).resolve().parent)


def _tree_sha(directory: pathlib.Path) -> str:
    """Short HEAD SHA of the checkout holding ``directory``.

    ``-dirty`` is appended when a tracked file differs from HEAD, so
    evidence produced from uncommitted code never passes for the commit.
    Untracked files do not count.  ``"unknown"`` outside git.
    """
    sha = _git(directory, "rev-parse", "--short=12", "HEAD")
    if not sha:
        return "unknown"
    if _git(directory, "status", "--porcelain", "--untracked-files=no"):
        return f"{sha}-dirty"
    return sha


def _git(directory: pathlib.Path, *args: str) -> Optional[str]:
    """``git args`` run in ``directory``: stripped stdout, ``None`` on failure."""
    try:
        result = subprocess.run(
            ["git", *args],
            cwd=directory,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip()


def _hostname() -> str:
    """The machine's hostname, or ``"unknown"`` where lookup fails."""
    try:
        hostname = socket.gethostname()
    except OSError:
        return "unknown"
    return hostname or "unknown"


def run_provenance() -> Dict[str, str]:
    """Where/what produced this run: git SHA, hostname, Python version.

    Every field degrades to the explicit string ``"unknown"`` rather
    than raising or going missing — a manifest produced from a source
    tarball on a sandboxed host still validates and still compares
    field-for-field against one produced in a checkout.
    """
    return {
        "git_sha": _git_sha(),
        "hostname": _hostname(),
        "python_version": platform.python_version(),
    }


def build_manifest(
    name: str,
    parameters: Optional[Mapping[str, Any]] = None,
    recorder: Optional[Recorder] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a manifest dict for one named run.

    ``parameters`` are the run's knobs (gadget parameters, seeds, graph
    sizes); ``recorder`` supplies counters/gauges, histogram/timer
    summaries, and per-phase span timings (the process-wide recorder is
    used when omitted, and an idle/disabled recorder simply yields
    empty sections); ``extra`` entries are merged under the ``"extra"``
    key verbatim.  ``parameters`` and ``extra`` must be JSON-native
    (``TypeError`` otherwise).

    When a live monitor is active and its watchdog flagged stalls, the
    structured stall reports are folded in under ``"stalls"`` — the
    durable half of the live telemetry plane's stall story (the
    transient half being the ``parallel.stalled_units`` counter and
    the ``live.jsonl`` stall events).
    """
    if recorder is None:
        from . import get_recorder

        recorder = get_recorder()
    parameters = dict(parameters or {})
    ensure_json_native(parameters, "parameters")
    spans = {
        span_name: {"count": count, "total_s": total}
        for span_name, (count, total) in recorder.span_aggregates().items()
    }
    manifest: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "parameters": parameters,
        "provenance": run_provenance(),
        "counters": dict(recorder.counters),
        "gauges": dict(recorder.gauges),
        "keyed_counters": {
            key: dict(bucket) for key, bucket in recorder.keyed_counters.items()
        },
        "histograms": recorder.histogram_summaries(),
        "timers": recorder.timer_summaries(),
        "spans": spans,
    }
    from .live import get_monitor

    monitor = get_monitor()
    if monitor is not None and monitor.stall_reports:
        manifest["stalls"] = [dict(report) for report in monitor.stall_reports]
    if extra:
        extra = dict(extra)
        ensure_json_native(extra, "extra")
        manifest["extra"] = extra
    return manifest


def write_manifest(
    path: Union[str, pathlib.Path],
    name: str,
    parameters: Optional[Mapping[str, Any]] = None,
    recorder: Optional[Recorder] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> pathlib.Path:
    """Build a manifest and write it as pretty-printed JSON; return the path."""
    path = pathlib.Path(path)
    manifest = build_manifest(name, parameters=parameters, recorder=recorder, extra=extra)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    """Parse a manifest file, checking it carries a schema version."""
    manifest = json.loads(pathlib.Path(path).read_text())
    if "schema_version" not in manifest:
        raise ValueError(f"{path} is not a run manifest: no schema_version")
    return manifest
