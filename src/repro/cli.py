"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``       closed-form sizes/thresholds for a parameter set
``figures``    regenerate the paper's construction figures as text
``claims``     verify every Property/Claim at a parameter set
``theorem1``   run the Theorem 1 sweep (gap -> 1/2)
``theorem2``   run the Theorem 2 sweep (gap -> 3/4)
``simulate``   run the Theorem 5 player simulation end to end
``protocols``  measure disjointness protocols against the Theorem 3 floor
``export``     write DOT/JSON snapshots of the constructions
``report``     run the full reproduction suite
``stats``      summarize a JSONL observability event file
``telemetry``  per-round CONGEST traffic distributions vs the Theorem 5 bound
``bench``      run the curated bench suite / compare BENCH_*.json records
``cache``      manage the result store: ``stats`` / ``clear`` / ``warm``
``dashboard``  build the static HTML run report with the coverage matrix
``serve``      run the async HTTP verification service (docs/SERVE.md)

Parallelism (see ``docs/PARALLEL.md``): ``theorem1``, ``theorem2``, and
``claims`` accept ``--workers N`` to fan their independent work units
out to N worker processes via :mod:`repro.parallel`; output is
guaranteed identical to the serial run.

Caching (see ``docs/CACHING.md``): the sweep commands accept
``--cache=off|memory|disk`` (plus ``--cache-dir``) to memoize whole
sweep units (and greedy code tables) in the content-addressed result
store (:mod:`repro.store`); warm runs produce byte-identical output.
``repro cache stats|clear|warm`` manages the on-disk store.

Observability (see ``docs/OBSERVABILITY.md``): ``report``,
``theorem1``, ``theorem2``, and ``simulate`` accept ``--profile`` to
enable the :mod:`repro.obs` recorder and print the span tree, the
critical path (the "where did the time go" table of span self times)
and counter totals after the run, ``--profile-json PATH`` to also
stream the events to a JSONL file that ``stats`` can replay later, and
``--trace-out PATH`` to export the recorded span tree as Chrome-trace
JSON for chrome://tracing or https://ui.perfetto.dev (``stats`` can
produce the same trace from a recorded JSONL file).  For a
function-level view, run the stdlib profiler over any command:
``python -m cProfile -s cumtime -m repro theorem1``.

The bench runner and the ``BENCH_*.json`` trajectory schema are
documented in ``docs/BENCHMARKS.md``; the dashboard in
``docs/DASHBOARD.md``.

Live telemetry (the "Live monitoring" section of
``docs/OBSERVABILITY.md``): ``theorem1``, ``theorem2`` and
``claims`` accept ``--live`` (in-place terminal status line),
``--live-out PATH`` (append-only ``live.jsonl`` stream, replayable
by ``repro stats``), ``--metrics-port PORT`` (background
HTTP server with Prometheus ``/metrics`` plus ``/progress`` and
``/health`` JSON; port 0 picks a free port and prints it), and the
stall watchdog knobs ``--watchdog-deadline SECONDS`` /
``--watchdog-requeue``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import random
import sys
from typing import Iterator, List, Optional

from .analysis import (
    instance_summary,
    linear_gap_ratio_asymptotic,
    quadratic_gap_ratio_asymptotic,
    render_key_values,
    render_table,
)
from .core.serialize import claim_checks_to_json, report_to_json
from .gadgets import (
    GadgetParameters,
    LinearConstruction,
    QuadraticConstruction,
)
from .graphs import render_figure


def _add_parameter_args(parser: argparse.ArgumentParser, default_t: int = 2) -> None:
    parser.add_argument("--ell", type=int, default=2, help="code distance l")
    parser.add_argument("--alpha", type=int, default=1, help="message length a")
    parser.add_argument("--t", type=int, default=default_t, help="number of players")
    parser.add_argument(
        "--k", type=int, default=None, help="indices (default (l+a)^a)"
    )


def _params(args: argparse.Namespace) -> GadgetParameters:
    return GadgetParameters(ell=args.ell, alpha=args.alpha, t=args.t, k=args.k)


def _add_workers_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "fan independent work units out to N worker processes "
            "(1 = serial; results are identical for any N, "
            "see docs/PARALLEL.md)"
        ),
    )


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        choices=("off", "memory", "disk"),
        default="off",
        help=(
            "memoize whole sweep units (and greedy code tables) in the "
            "content-addressed result store (docs/CACHING.md)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="on-disk store root for --cache=disk (default .repro-cache)",
    )


@contextlib.contextmanager
def _cached(args: argparse.Namespace) -> Iterator[None]:
    """Configure the result store around a command body (``--cache``)."""
    from . import store

    with store.using_store(
        getattr(args, "cache", "off"), path=getattr(args, "cache_dir", None)
    ):
        yield


@contextlib.contextmanager
def _recording_enabled() -> Iterator[object]:
    """The single recorder-enablement path every CLI plane shares.

    ``--profile`` and ``--live`` can appear in any combination;
    whichever plane enters first resets and enables the
    process-wide recorder, and every later plane sees it already
    enabled and leaves it alone.  This is what guarantees one recorder
    setup (and hence one manifest / one ``meta`` line per JSONL sink)
    no matter how the flags are combined.
    """
    from . import obs

    recorder = obs.get_recorder()
    if recorder.enabled:
        yield recorder
        return
    recorder.reset()
    recorder.enabled = True
    try:
        yield recorder
    finally:
        recorder.enabled = False


def _add_profile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record spans/counters via repro.obs and print the profile",
    )
    parser.add_argument(
        "--profile-json",
        default=None,
        metavar="PATH",
        help="also write JSONL events for `repro stats` (implies --profile)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "also export the span tree as Chrome-trace JSON for "
            "chrome://tracing / Perfetto (implies --profile)"
        ),
    )


@contextlib.contextmanager
def _profiled(args: argparse.Namespace) -> Iterator[Optional[object]]:
    """Enable the recorder around a command when ``--profile`` is set.

    Yields the recorder (or ``None`` when not profiling) and prints the
    span tree, the critical path and the counter/gauge totals after the
    command body finishes.
    """
    jsonl_path = getattr(args, "profile_json", None)
    trace_path = getattr(args, "trace_out", None)
    if (
        not getattr(args, "profile", False)
        and jsonl_path is None
        and trace_path is None
    ):
        yield None
        return
    from . import obs

    # A caller that is already recording (an enclosing obs.recording()
    # block) keeps its data: only a recorder enabled here is reset.
    with obs.recording(
        jsonl_path=jsonl_path, reset=not obs.is_enabled(), command=args.command
    ) as recorder:
        with recorder.span(args.command):
            yield recorder
    print()
    print("PROFILE")
    print("=======")
    print(recorder.render_span_tree())
    print()
    print("where did the time go (critical path):")
    print(obs.render_critical_path(recorder.spans))
    print()
    print(recorder.render_summary())
    if jsonl_path:
        print(f"\n[events written to {jsonl_path}]")
    if trace_path:
        obs.write_chrome_trace(trace_path, recorder.spans, trace_name=args.command)
        print(f"\n[Chrome trace written to {trace_path}]")


def _add_live_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--live",
        action="store_true",
        help="draw an in-place live status line while the sweep runs",
    )
    parser.add_argument(
        "--live-out",
        default=None,
        metavar="PATH",
        help=(
            "append live progress/heartbeat/stall events to a live.jsonl "
            "stream (JSONL envelope v4; replay with `repro stats`)"
        ),
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve Prometheus /metrics plus /progress and /health JSON "
            "on this port while the command runs (0 picks a free port)"
        ),
    )
    parser.add_argument(
        "--watchdog-deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "flag a worker as stalled when its heartbeat lapses this long "
            "(default 30; only meaningful with --workers >= 2)"
        ),
    )
    parser.add_argument(
        "--watchdog-requeue",
        action="store_true",
        help=(
            "on a stall, requeue unfinished units on the serial fallback "
            "and abandon the wedged pool instead of waiting"
        ),
    )


@contextlib.contextmanager
def _live(args: argparse.Namespace) -> Iterator[Optional[object]]:
    """Install the live telemetry plane around a command body.

    Active when any of ``--live``, ``--live-out``, ``--metrics-port``,
    or ``--watchdog-requeue`` is given: builds the
    :class:`~repro.obs.live.LiveMonitor`, installs it as the ambient
    monitor the engine consults, optionally starts the HTTP exporter
    (announcing its URL on stderr so scrapers can find an ephemeral
    port), and makes sure the process-wide recorder is recording so
    ``/metrics`` has counters to render even without ``--profile``.
    """
    live_out = getattr(args, "live_out", None)
    metrics_port = getattr(args, "metrics_port", None)
    if not (
        getattr(args, "live", False)
        or live_out is not None
        or metrics_port is not None
        or getattr(args, "watchdog_requeue", False)
    ):
        yield None
        return
    from . import obs

    with _recording_enabled():
        monitor = obs.LiveMonitor(
            command=args.command,
            render=getattr(args, "live", False),
            jsonl_path=live_out,
            watchdog_deadline_s=getattr(args, "watchdog_deadline", 30.0),
            requeue=getattr(args, "watchdog_requeue", False),
        )
        server = None
        try:
            if metrics_port is not None:
                from .serve.http import BackgroundServer, suite_handler

                server = BackgroundServer(
                    suite_handler(obs.MetricsSuite(monitor=monitor)),
                    port=metrics_port,
                ).start()
                print(f"[live metrics: {server.url}]", file=sys.stderr, flush=True)
            with obs.using_monitor(monitor):
                yield monitor
        finally:
            if server is not None:
                server.close()
            monitor.close()
            if live_out:
                print(f"[live events written to {live_out}]", file=sys.stderr)


def _live_recorder(
    recorder: Optional[object], monitor: Optional[object]
) -> Optional[object]:
    """The recorder profiled phases should use inside a live block.

    ``--live`` without ``--profile`` still enables the process-wide
    recorder (the exporter needs counters), but ``_profiled`` yielded
    ``None`` — resolve to the enabled recorder in that case.
    """
    if recorder is not None or monitor is None:
        return recorder
    from . import obs

    return obs.get_recorder() if obs.is_enabled() else None


def _profile_simulation_phase(recorder: Optional[object], seed: int) -> None:
    """Run the Theorem 5 simulation check as a profiled phase.

    The theorem sweeps measure gaps and cut sizes but never run the
    CONGEST network themselves; under ``--profile`` the full proof
    chain is exercised, so the simulator's message/bit counters show up
    in the profile alongside the solver phases.
    """
    if recorder is None:
        return
    from .core.suite import simulation_check_rows

    with recorder.span("simulate"):
        simulation_check_rows(seed)


def cmd_info(args: argparse.Namespace) -> int:
    summary = instance_summary(_params(args))
    print(render_key_values(sorted(summary.items()), indent=""))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    linear = LinearConstruction(GadgetParameters(ell=2, alpha=1, t=args.t))
    print(
        render_figure(
            f"Linear construction G (ell=2, alpha=1, t={args.t})",
            linear.graph,
            linear.groups(),
        )
    )
    print()
    quadratic = QuadraticConstruction(GadgetParameters(ell=2, alpha=1, t=args.t))
    print(
        render_figure(
            f"Quadratic construction F (ell=2, alpha=1, t={args.t})",
            quadratic.graph,
            quadratic.groups(),
        )
    )
    return 0


def cmd_claims(args: argparse.Namespace) -> int:
    from .parallel import claims_checks

    params = _params(args)
    if params.t > params.k:
        # Claim 4 picks t distinct indices out of k.
        print(
            f"repro claims: --t {params.t} needs at least {params.t} indices, "
            f"but k = {params.k}; lower --t or raise --k, --ell or --alpha",
            file=sys.stderr,
        )
        return 2
    with _cached(args), _live(args):
        checks = claims_checks(
            params,
            num_samples=args.samples,
            include_quadratic=args.quadratic,
            workers=args.workers,
        )
    if args.json:
        print(claim_checks_to_json(checks))
    else:
        rows = [
            [c.name, c.measured, f"{c.direction} {c.bound}", c.holds, c.detail]
            for c in checks
        ]
        print(
            render_table(
                ["statement", "measured", "paper bound", "holds", "detail"],
                rows,
                title=f"Verification at {params!r}",
            )
        )
    return 0 if all(check.holds for check in checks) else 1


def cmd_theorem1(args: argparse.Namespace) -> int:
    from .parallel import theorem1_reports

    rows = []
    exit_code = 0
    with _cached(args), _profiled(
        args
    ) as recorder, _live(args) as monitor:
        recorder = _live_recorder(recorder, monitor)
        if monitor is not None:
            # Run the CONGEST simulation *before* the sweep in live mode
            # so /metrics already serves congest.round_bits while the
            # sweep is being scraped.
            _profile_simulation_phase(recorder, args.seed)
        reports = theorem1_reports(
            args.max_t,
            num_samples=args.samples,
            seed=args.seed,
            workers=args.workers,
        )
        for report in reports:
            if args.json:
                print(report_to_json(report))
            if not report.gap.claims_hold:
                exit_code = 1
            rows.append(
                [
                    report.params.t,
                    report.params.ell,
                    report.num_nodes,
                    report.cut,
                    round(report.gap.measured_ratio, 4),
                    round(linear_gap_ratio_asymptotic(report.params.t), 4),
                    report.gap.claims_hold,
                ]
            )
        if monitor is None:
            _profile_simulation_phase(recorder, args.seed)
        if not args.json:
            print(
                render_table(
                    ["t", "ell", "n", "cut", "measured ratio", "asymptotic", "claims hold"],
                    rows,
                    title="Theorem 1: the gap descends toward 1/2",
                )
            )
    return exit_code


def cmd_theorem2(args: argparse.Namespace) -> int:
    from .parallel import theorem2_reports

    rows = []
    exit_code = 0
    with _cached(args), _profiled(
        args
    ) as recorder, _live(args) as monitor:
        recorder = _live_recorder(recorder, monitor)
        if monitor is not None:
            _profile_simulation_phase(recorder, args.seed)
        reports = theorem2_reports(
            args.max_t,
            num_samples=max(1, args.samples // 2),
            seed=args.seed,
            workers=args.workers,
        )
        for report in reports:
            if args.json:
                print(report_to_json(report))
            if not report.gap.claims_hold:
                exit_code = 1
            rows.append(
                [
                    report.params.t,
                    report.params.ell,
                    report.num_nodes,
                    round(report.gap.measured_ratio, 4),
                    round(quadratic_gap_ratio_asymptotic(report.params.t), 4),
                    report.gap.claims_hold,
                ]
            )
        if monitor is None:
            _profile_simulation_phase(recorder, args.seed)
        if not args.json:
            print(
                render_table(
                    ["t", "ell", "n", "measured ratio", "asymptotic", "claims hold"],
                    rows,
                    title="Theorem 2: the gap descends toward 3/4",
                )
            )
    return exit_code


def _theorem5_sides(seed: int):
    """``(side, report)`` per promise side, labelled for the commands."""
    from .core.suite import theorem5_pair

    for intersecting, report in theorem5_pair(seed):
        yield ("intersecting" if intersecting else "disjoint"), report


def _cut_traffic_lines(report) -> List[str]:
    """Per-round cut-traffic statistics next to the predicted ceilings."""
    from .obs.metrics import Histogram

    summary = Histogram.of(report.cut_round_bits).summary()
    return [
        (
            "              cut traffic/round: "
            f"p50={summary['p50']:.0f} p90={summary['p90']:.0f} "
            f"p99={summary['p99']:.0f} max={summary['max']:.0f} "
            f"mean={summary['mean']:.1f} bits"
        ),
        (
            "              predicted: <= 2*|cut|*B = "
            f"{report.per_round_bit_bound} bits/round, "
            f"2*T*|cut|*B = {report.analytic_bit_bound} bits total"
        ),
    ]


def cmd_simulate(args: argparse.Namespace) -> int:
    exit_code = 0
    with _profiled(args) as recorder:
        for side, report in _theorem5_sides(args.seed):
            print(
                f"{side:>12}: rounds={report.rounds} cut={report.cut_edges} "
                f"bits={report.blackboard_bits} <= {report.analytic_bit_bound} "
                f"decision={report.predicate_output} f(x)={report.function_value}"
            )
            if recorder is not None:
                for line in _cut_traffic_lines(report):
                    print(line)
            if not report.is_consistent:
                exit_code = 1
    return exit_code


def _cache_data(recorder) -> Optional[dict]:
    """The cache.* metrics as a plain dict, or ``None`` while caching is off.

    Callers skip the section when caching is off.  With a store
    configured the section is always there, zeros included: the
    simulation caches no whole unit, so it shows that nothing was read
    or written.
    """
    from . import store

    if store.get_store() is None:
        return None
    hits = int(recorder.counters.get("cache.hit", 0))
    misses = int(recorder.counters.get("cache.miss", 0))
    bytes_written = int(recorder.counters.get("cache.bytes_written", 0))
    total = hits + misses
    data = {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / total if total else None,
        "bytes_written": bytes_written,
        "lookup_p50_s": None,
        "lookup_p99_s": None,
    }
    lookup = recorder.timer_summaries().get("cache.lookup")
    if lookup:
        data["lookup_p50_s"] = lookup["p50"]
        data["lookup_p99_s"] = lookup["p99"]
    return data


#: Shape of the ``repro telemetry --json`` document; bumped whenever a
#: field is renamed/removed so downstream consumers (``repro dashboard``
#: and anything else parsing the output) can key off it.
TELEMETRY_SCHEMA_VERSION = 1

#: The per-round distributions the telemetry surfaces, in table order.
_TELEMETRY_METRICS = (
    "congest.round_messages",
    "congest.round_bits",
    "congest.edge_utilization",
    "theorem5.cut_round_bits",
)


def telemetry_data(seed: int = 0) -> dict:
    """Machine-readable Theorem 5 telemetry (the ``--json`` document).

    Runs the seeded simulation pair under a recorder and returns the
    per-round traffic distributions, the per-side cut-traffic bounds,
    and any cache activity — the same numbers the ``repro telemetry``
    tables render, as a JSON-native dict.  Deterministic for a given
    seed.  Respects a configured result store (``--cache``); the
    dashboard collector calls this directly.
    """
    from . import obs

    sides = []
    consistent = True
    with obs.recording() as recorder:
        for side, report in _theorem5_sides(seed):
            consistent = consistent and report.is_consistent
            sides.append(
                {
                    "side": side,
                    "rounds": report.rounds,
                    "cut_edges": report.cut_edges,
                    "measured_bits": report.blackboard_bits,
                    "per_round_bit_bound": report.per_round_bit_bound,
                    "analytic_bit_bound": report.analytic_bit_bound,
                    "within_bound": report.blackboard_bits
                    <= report.analytic_bit_bound,
                    "consistent": report.is_consistent,
                }
            )
    summaries = recorder.histogram_summaries()
    return {
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "seed": seed,
        "metrics": {
            name: summaries[name] for name in _TELEMETRY_METRICS if name in summaries
        },
        "sides": sides,
        "cache": _cache_data(recorder),
        "consistent": consistent,
    }


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Run the Theorem 5 simulation and table its traffic distributions."""
    from .obs.metrics import render_summary_rows

    with _cached(args):
        data = telemetry_data(seed=args.seed)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0 if data["consistent"] else 1
    rows = render_summary_rows(data["metrics"])
    print(
        render_table(
            ["metric", "count", "min", "mean", "p50", "p90", "p99", "max"],
            rows,
            title="Per-round CONGEST telemetry (both promise sides)",
        )
    )
    print()
    bound_rows = [
        [
            side["side"],
            side["rounds"],
            side["cut_edges"],
            side["measured_bits"],
            side["per_round_bit_bound"],
            side["analytic_bit_bound"],
            side["within_bound"],
        ]
        for side in data["sides"]
    ]
    print(
        render_table(
            [
                "side",
                "rounds T",
                "|cut|",
                "measured bits",
                "2|cut|B /round",
                "2T|cut|B total",
                "within bound",
            ],
            bound_rows,
            title="Observed cut traffic vs the Theorem 5 ceiling",
        )
    )
    cache = data["cache"]
    if cache is not None:
        cache_rows: List[List[object]] = [
            ["hits", cache["hits"]],
            ["misses", cache["misses"]],
            [
                "hit rate",
                f"{cache['hit_rate']:.1%}" if cache["hit_rate"] is not None else "n/a",
            ],
            ["bytes written", cache["bytes_written"]],
        ]
        if cache["lookup_p50_s"] is not None:
            cache_rows.append(
                ["lookup p50 (ms)", round(cache["lookup_p50_s"] * 1000.0, 3)]
            )
            cache_rows.append(
                ["lookup p99 (ms)", round(cache["lookup_p99_s"] * 1000.0, 3)]
            )
        print()
        print(
            render_table(
                ["cache", "value"],
                cache_rows,
                title="Result store (cache.* counters)",
            )
        )
    return 0 if data["consistent"] else 1


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the curated bench suite or compare two trajectory records."""
    try:
        from benchmarks import runner
    except ImportError:
        print(
            "repro bench needs the benchmarks/ package importable; "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2

    if args.compare is not None:
        if len(args.compare) == 2:
            old_path, new_path = args.compare
        elif len(args.compare) == 1:
            # One path given: auto-discover the baseline — the newest
            # other BENCH_*.json in the results directory.
            new_path = args.compare[0]
            results_dir = pathlib.Path(args.out) if args.out else None
            old_path = runner.latest_trajectory(
                results_dir, exclude=pathlib.Path(new_path)
            )
            if old_path is None:
                print(
                    "repro bench --compare: no baseline BENCH_*.json found "
                    f"in {results_dir or runner.RESULTS_DIR} or "
                    f"{runner.BASELINES_DIR}; run `python -m repro bench` "
                    "to record one",
                    file=sys.stderr,
                )
                return 2
            print(f"[auto-discovered baseline: {old_path}]")
        else:
            print(
                "repro bench --compare takes one (NEW, baseline "
                "auto-discovered) or two (OLD NEW) trajectory paths",
                file=sys.stderr,
            )
            return 2
        try:
            return runner.compare_files(
                old_path,
                new_path,
                threshold=args.threshold,
                warn_only=args.warn_only,
            )
        except (FileNotFoundError, ValueError) as error:
            print(f"repro bench --compare: {error}", file=sys.stderr)
            return 2
    try:
        runner.discover(args.only)
    except KeyError as error:
        print(f"repro bench: {error.args[0]}", file=sys.stderr)
        return 2
    warmup, repeats = args.warmup, args.repeats
    if args.fast:
        warmup, repeats = 1, 3
    path, trajectory = runner.run_suite(
        warmup=warmup, repeats=repeats, only=args.only, out_dir=args.out
    )
    print(f"\n[trajectory written to {path}]")
    return 0


def cmd_protocols(args: argparse.Namespace) -> int:
    from .commcc import (
        CandidateIndexProtocol,
        FullRevealProtocol,
        RunningIntersectionProtocol,
        pairwise_disjointness_cc_lower_bound,
        promise_inputs,
        verified_disjointness_bound,
    )

    k, t = args.k, args.t
    protocols = {
        "full-reveal": FullRevealProtocol(),
        "running-intersection": RunningIntersectionProtocol(),
        "candidate-index": CandidateIndexProtocol(),
    }
    rows = []
    for name, protocol in protocols.items():
        worst = 0
        for seed in range(args.trials):
            for intersecting in (True, False):
                inputs = promise_inputs(
                    k, t, intersecting, rng=random.Random(seed)
                )
                worst = max(worst, protocol.run(inputs).cost_bits)
        rows.append([name, worst])
    print(
        render_table(
            ["protocol", "worst measured cost (bits)"],
            rows,
            title=f"Promise pairwise disjointness, k={k}, t={t}",
        )
    )
    floor = pairwise_disjointness_cc_lower_bound(k, t)
    print(f"\nTheorem 3 floor: {floor:.1f} bits")
    if k <= 12 and t == 2:
        print(
            f"fooling-set bound (deterministic, verified): "
            f"{verified_disjointness_bound(k):.0f} bits"
        )
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from .graphs import graph_to_json, to_dot

    out = pathlib.Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    params = _params(args)
    linear = LinearConstruction(params)
    quadratic = QuadraticConstruction(params)
    files = {
        "linear.dot": to_dot(linear.graph, groups=linear.groups(), name="G"),
        "quadratic.dot": to_dot(
            quadratic.graph, groups=quadratic.groups(), name="F"
        ),
        "linear_fixed.json": graph_to_json(linear.graph, indent=2),
    }
    for filename, content in files.items():
        path = out / filename
        path.write_text(content + "\n")
        print(f"wrote {path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .core import run_reproduction_suite

    with _profiled(args):
        suite = run_reproduction_suite(
            max_t=args.max_t, num_samples=args.samples, seed=args.seed
        )
        if args.json:
            print(suite.to_json())
        else:
            print(suite.render())
    return 0 if suite.all_claims_hold else 1


def cmd_stats(args: argparse.Namespace) -> int:
    from .obs.stats import load_events_tolerant, render_stats, span_events

    path = pathlib.Path(args.events)
    # A run that recorded nothing (or was pointed at a path it never
    # wrote) is not an error worth a stack trace: say so and exit 0.
    if not path.is_file() or path.stat().st_size == 0:
        print(
            f"no events recorded in {path} — run a command with "
            "--profile-json or --live-out to produce one"
        )
        return 0
    events, malformed = load_events_tolerant(path)
    if not events:
        print(f"no events recorded in {path} (no parseable event lines)")
        return 0
    print(render_stats(events, malformed=malformed))
    if args.trace_out:
        from .obs.export import write_chrome_trace

        write_chrome_trace(
            args.trace_out, span_events(events), trace_name=path.stem
        )
        print(f"\n[Chrome trace written to {args.trace_out}]")
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Build the static HTML run report with the paper-claim coverage matrix."""
    from .report import build_dashboard

    result = build_dashboard(
        args.out,
        results_dir=args.results,
        seed=args.seed,
        include_telemetry=not args.no_telemetry,
    )
    summary = result["summary"]
    print(
        f"coverage: {summary['verified']} verified, {summary['stale']} stale, "
        f"{summary['unverified']} unverified, {summary['unmapped']} unmapped "
        f"of {summary['total']} paper statements"
    )
    print(f"[report written to {result['path']}]")
    exit_code = 0
    if result["unmapped"]:
        print(
            f"UNMAPPED paper statements: {', '.join(result['unmapped'])}",
            file=sys.stderr,
        )
        exit_code = 1
    if result["problems"]:
        for problem in result["problems"]:
            print(f"registry problem: {problem}", file=sys.stderr)
        exit_code = 1
    if args.open:
        import webbrowser

        webbrowser.open(pathlib.Path(result["path"]).resolve().as_uri())
    return exit_code


def cmd_cache_stats(args: argparse.Namespace) -> int:
    """Table the on-disk store's entry/byte totals per job kind."""
    from .store import DiskBackend

    stats = DiskBackend(args.cache_dir).stats()
    rows = [
        [kind, info["entries"], info["bytes"]]
        for kind, info in sorted(stats["kinds"].items())
    ]
    rows.append(["TOTAL", stats["entries"], stats["bytes"]])
    print(
        render_table(
            ["job kind", "entries", "bytes"],
            rows,
            title=f"Result store at {stats['root']}",
        )
    )
    return 0


def cmd_cache_clear(args: argparse.Namespace) -> int:
    """Delete every entry (index rows + payload files) from the disk store."""
    from .store import DiskBackend

    backend = DiskBackend(args.cache_dir)
    entries, nbytes = backend.clear()
    print(f"cleared {entries} entries ({nbytes} bytes) from {backend.root}")
    return 0


def cmd_cache_warm(args: argparse.Namespace) -> int:
    """Precompute the theorem sweep grids into the on-disk store."""
    from . import store
    from .parallel import run_units, theorem1_units, theorem2_units

    with store.using_store("disk", path=args.cache_dir):
        units = theorem1_units(args.max_t, num_samples=args.samples, seed=args.seed)
        units += theorem2_units(
            args.max_t, num_samples=max(1, args.samples // 2), seed=args.seed
        )
        run_units(units, workers=args.workers)
        stats = store.get_store().backend.stats()
    print(
        f"warmed {len(units)} units -> {stats['entries']} entries "
        f"({stats['bytes']} bytes) at {stats['root']}"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the async verification service (``docs/SERVE.md``).

    Binds the asyncio HTTP front-end, announces the URL on stderr
    (``[serve: http://...]`` — the CI smoke jobs parse this line), and
    serves until SIGINT/SIGTERM.
    The metrics plane mounts inside the service's own event loop via
    :class:`~repro.obs.httpexp.MetricsSuite` — ``repro serve`` never
    starts a second metrics server.
    """
    from . import obs
    from .obs.httpexp import MetricsSuite
    from .obs.reqtrace import TraceBuffer
    from .obs.sinks import JsonlAppender
    from .serve import Application, Dispatcher, SLORegistry
    from .serve import parse_slo_spec
    from .serve import run as serve_run

    try:
        slo = SLORegistry(
            targets_ms=parse_slo_spec(args.slo or []),
            objective=args.slo_objective,
        )
        traces = TraceBuffer(capacity=args.trace_buffer, slow_ms=args.slow_ms)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    access_log = None
    if args.access_log:
        access_log = JsonlAppender(args.access_log, "access", "serve")
        print(f"[access log: {access_log.path}]", file=sys.stderr, flush=True)
    with _cached(args), _recording_enabled():
        monitor = obs.LiveMonitor(command="serve", render=False)
        dispatcher = Dispatcher(queue_limit=args.queue_limit)
        app = Application(
            dispatcher=dispatcher,
            suite=MetricsSuite(monitor=monitor),
            workers=args.workers,
            traces=traces,
            slo=slo,
            access_log=access_log,
        )
        try:
            with obs.using_monitor(monitor):
                return serve_run(
                    app.dispatch,
                    host=args.host,
                    port=args.port,
                    announce=lambda url: print(
                        f"[serve: {url}]", file=sys.stderr, flush=True
                    ),
                )
        finally:
            app.close()
            monitor.close()


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads only whole option names.

    With abbreviations allowed, ``repro report --t 3`` would parse
    ``--t`` as ``--trace-out``; here it is an error (exit 2).  Every
    subcommand parser is built from this class, so none of them reads
    abbreviations either.
    """

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)


def _int_at_least(minimum: int):
    """An argparse type: an ``int`` of at least ``minimum`` (exit 2 otherwise)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    return parse


#: ``--samples``: an empty sample set measures nothing.
_SAMPLES = _int_at_least(1)

#: ``--max-t``: the sweeps start at ``t = 2`` players.
_MAX_T = _int_at_least(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description=(
            "Executable reproduction of 'Beyond Alice and Bob' (PODC 2020)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    info = subparsers.add_parser("info", help="closed-form instance sizes")
    _add_parameter_args(info)
    info.set_defaults(func=cmd_info)

    figures = subparsers.add_parser("figures", help="render the constructions")
    figures.add_argument("--t", type=int, default=2)
    figures.set_defaults(func=cmd_figures)

    claims = subparsers.add_parser("claims", help="verify properties and claims")
    _add_parameter_args(claims)
    claims.add_argument("--samples", type=_SAMPLES, default=3)
    claims.add_argument("--quadratic", action="store_true")
    claims.add_argument("--json", action="store_true")
    _add_workers_arg(claims)
    _add_cache_args(claims)
    _add_live_args(claims)
    claims.set_defaults(func=cmd_claims)

    theorem1 = subparsers.add_parser("theorem1", help="run the Theorem 1 sweep")
    theorem1.add_argument("--max-t", type=_MAX_T, default=4)
    theorem1.add_argument("--samples", type=_SAMPLES, default=2)
    theorem1.add_argument("--seed", type=int, default=0)
    theorem1.add_argument("--json", action="store_true")
    _add_workers_arg(theorem1)
    _add_profile_args(theorem1)
    _add_cache_args(theorem1)
    _add_live_args(theorem1)
    theorem1.set_defaults(func=cmd_theorem1)

    theorem2 = subparsers.add_parser("theorem2", help="run the Theorem 2 sweep")
    theorem2.add_argument("--max-t", type=_MAX_T, default=3)
    theorem2.add_argument("--samples", type=_SAMPLES, default=2)
    theorem2.add_argument("--seed", type=int, default=0)
    theorem2.add_argument("--json", action="store_true")
    _add_workers_arg(theorem2)
    _add_profile_args(theorem2)
    _add_cache_args(theorem2)
    _add_live_args(theorem2)
    theorem2.set_defaults(func=cmd_theorem2)

    simulate = subparsers.add_parser(
        "simulate", help="run the Theorem 5 player simulation"
    )
    simulate.add_argument("--seed", type=int, default=0)
    _add_profile_args(simulate)
    simulate.set_defaults(func=cmd_simulate)

    protocols = subparsers.add_parser(
        "protocols", help="measure disjointness protocols vs the CC floor"
    )
    protocols.add_argument("--k", type=int, default=64)
    protocols.add_argument("--t", type=int, default=3)
    protocols.add_argument("--trials", type=int, default=3)
    protocols.set_defaults(func=cmd_protocols)

    export = subparsers.add_parser(
        "export", help="write DOT/JSON snapshots of the constructions"
    )
    _add_parameter_args(export)
    export.add_argument("--output", default="repro_export")
    export.set_defaults(func=cmd_export)

    report = subparsers.add_parser(
        "report", help="run the full reproduction suite"
    )
    report.add_argument("--max-t", type=_MAX_T, default=4)
    report.add_argument("--samples", type=_SAMPLES, default=2)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--json", action="store_true")
    _add_profile_args(report)
    report.set_defaults(func=cmd_report)

    stats = subparsers.add_parser(
        "stats", help="summarize a JSONL observability event file"
    )
    stats.add_argument(
        "events", help="path to an events.jsonl written via --profile-json"
    )
    stats.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also export the recorded spans as Chrome-trace JSON",
    )
    stats.set_defaults(func=cmd_stats)

    telemetry = subparsers.add_parser(
        "telemetry",
        help="per-round CONGEST traffic distributions vs the Theorem 5 bound",
    )
    telemetry.add_argument("--seed", type=int, default=0)
    telemetry.add_argument(
        "--json",
        action="store_true",
        help="emit the telemetry as a JSON document instead of tables",
    )
    _add_cache_args(telemetry)
    telemetry.set_defaults(func=cmd_telemetry)

    bench = subparsers.add_parser(
        "bench",
        help="run the curated bench suite, or --compare two BENCH_*.json files",
    )
    bench.add_argument(
        "--warmup", type=_int_at_least(0), default=2, help="warmup runs per bench"
    )
    bench.add_argument(
        "--repeats", type=_int_at_least(1), default=5, help="timed runs per bench"
    )
    bench.add_argument(
        "--fast", action="store_true", help="shorthand for --warmup 1 --repeats 3"
    )
    bench.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run only the named bench (repeatable)",
    )
    bench.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="directory for BENCH_<sha>.json (default benchmarks/results)",
    )
    bench.add_argument(
        "--compare",
        nargs="+",
        metavar="PATH",
        help=(
            "compare trajectory records instead of running benches: "
            "OLD NEW, or just NEW with the baseline auto-discovered as "
            "the newest other BENCH_*.json in the results directory"
        ),
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="relative median slowdown treated as a regression (default 0.15)",
    )
    bench.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (CI non-blocking mode)",
    )
    bench.set_defaults(func=cmd_bench)

    dashboard = subparsers.add_parser(
        "dashboard",
        help="build the static HTML run report with the coverage matrix",
    )
    dashboard.add_argument(
        "--out",
        default="dashboard",
        metavar="DIR",
        help="output directory for report.html (default ./dashboard)",
    )
    dashboard.add_argument(
        "--results",
        default=None,
        metavar="DIR",
        help="run-manifest/trajectory directory (default benchmarks/results)",
    )
    dashboard.add_argument(
        "--seed", type=int, default=0, help="seed for the telemetry simulation"
    )
    dashboard.add_argument(
        "--no-telemetry",
        action="store_true",
        help="skip the seeded Theorem 5 telemetry section",
    )
    dashboard.add_argument(
        "--open",
        action="store_true",
        help="open the written report in the default browser",
    )
    dashboard.set_defaults(func=cmd_dashboard)

    cache = subparsers.add_parser(
        "cache", help="manage the content-addressed result store"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    def _add_cache_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="on-disk store root (default $REPRO_CACHE_DIR or .repro-cache)",
        )

    cache_stats = cache_sub.add_parser(
        "stats", help="entry/byte totals per job kind"
    )
    _add_cache_dir(cache_stats)
    cache_stats.set_defaults(func=cmd_cache_stats)

    cache_clear = cache_sub.add_parser("clear", help="delete every cached entry")
    _add_cache_dir(cache_clear)
    cache_clear.set_defaults(func=cmd_cache_clear)

    cache_warm = cache_sub.add_parser(
        "warm", help="precompute the theorem sweep grids into the disk store"
    )
    _add_cache_dir(cache_warm)
    cache_warm.add_argument("--max-t", type=_MAX_T, default=3)
    cache_warm.add_argument("--samples", type=_SAMPLES, default=2)
    cache_warm.add_argument("--seed", type=int, default=0)
    _add_workers_arg(cache_warm)
    cache_warm.set_defaults(func=cmd_cache_warm)

    serve = subparsers.add_parser(
        "serve",
        help="run the async HTTP verification service (docs/SERVE.md)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8421,
        help="port to bind (default 8421; 0 picks a free port)",
    )
    _add_workers_arg(serve)
    serve.add_argument(
        "--queue-limit",
        type=_int_at_least(1),
        default=64,
        metavar="N",
        help=(
            "maximum queued-plus-running dispatches before requests are "
            "shed with 429 + Retry-After (default 64)"
        ),
    )
    serve.add_argument(
        "--access-log",
        metavar="PATH",
        default=None,
        help=(
            "append a structured JSONL access log (one line per request "
            "with trace_id/status/disposition/timings; parent dirs are "
            "created; replay with 'repro stats PATH')"
        ),
    )
    serve.add_argument(
        "--slo",
        action="append",
        metavar="ENDPOINT=MS",
        help=(
            "override a per-endpoint latency target, e.g. "
            "--slo 'POST /v1/maxis=1500' (repeatable; defaults in "
            "repro.serve.slo.DEFAULT_TARGETS_MS)"
        ),
    )
    serve.add_argument(
        "--slo-objective",
        type=float,
        default=0.99,
        metavar="FRAC",
        help=(
            "fraction of requests that must meet their SLO target "
            "(default 0.99; drives the error-budget-burn gauges)"
        ),
    )
    serve.add_argument(
        "--trace-buffer",
        type=int,
        default=256,
        metavar="N",
        help=(
            "completed request traces retained per tier — routine and "
            "slow/errored are bounded separately (default 256)"
        ),
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=500.0,
        metavar="MS",
        help=(
            "tail-sampling threshold: requests at or over this duration "
            "are retained as 'interesting' traces (default 500)"
        ),
    )
    _add_cache_args(serve)
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    A reader that closes stdout early (``repro figures | head -1``) ends
    the command quietly with exit code 1.  The rest of the output goes
    to the null device, so the interpreter's final flush cannot raise
    ``BrokenPipeError`` again.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError):
            pass  # stdout has no descriptor (captured): nothing to flush
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
