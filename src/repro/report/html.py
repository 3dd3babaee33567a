"""Render the collected report model as one static ``report.html``.

Pure string assembly from the :func:`repro.report.collect.collect_report`
model: embedded CSS, inline SVG sparklines, zero JavaScript, zero
network fetches — the file opens identically from a laptop, a CI
artifact browser, or ``file://``.  No timestamps are embedded, so the
bytes depend only on the collected inputs.
"""

from __future__ import annotations

import html as html_escape
import pathlib
from typing import Any, Dict, List, Optional, Union

from .svg import sparkline_svg

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem; color: #1a202c; }
h1 { font-size: 1.5rem; border-bottom: 2px solid #2b6cb0; padding-bottom: .4rem; }
h2 { font-size: 1.15rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-size: .85rem; }
th, td { border: 1px solid #cbd5e0; padding: .35rem .55rem; text-align: left;
         vertical-align: top; }
th { background: #edf2f7; }
tr:nth-child(even) td { background: #f7fafc; }
code { background: #edf2f7; padding: 0 .25rem; border-radius: 3px;
       font-size: .95em; }
.meta { color: #4a5568; font-size: .85rem; }
.badge { display: inline-block; border-radius: 3px; padding: .1rem .45rem;
         font-size: .8rem; font-weight: 600; color: #fff; }
.badge.verified { background: #2f855a; }
.badge.stale { background: #b7791f; }
.badge.unverified { background: #718096; }
.badge.unmapped { background: #c53030; }
.badge.ok { background: #2f855a; }
.badge.bad { background: #c53030; }
.summary { margin: .8rem 0; }
.summary .badge { margin-right: .5rem; }
.problems { background: #fff5f5; border: 1px solid #c53030; padding: .6rem 1rem;
            border-radius: 4px; }
svg.spark { vertical-align: middle; }
"""


def _esc(value: Any) -> str:
    return html_escape.escape(str(value))


def _ms(wall_s: Optional[float]) -> str:
    if wall_s is None:
        return "—"
    return f"{wall_s * 1000:.1f} ms"


def _badge(status: str) -> str:
    return f'<span class="badge {_esc(status)}">{_esc(status)}</span>'


def _check_cell(checks: List[Dict[str, Any]]) -> str:
    parts = []
    for check in checks:
        label = check["ref"]
        if check["kind"] == "bench":
            label = f"bench:{label}"
        parts.append(f"<code>{_esc(label)}</code>")
    return "<br>".join(parts)


def _coverage_section(data: Dict[str, Any]) -> List[str]:
    summary = data["summary"]
    out = ["<h2>Paper-claim coverage matrix</h2>"]
    out.append(
        '<p class="summary">'
        + " ".join(
            f'{_badge(status)} {summary[status]}'
            for status in ("verified", "stale", "unverified", "unmapped")
        )
        + f" <span class=\"meta\">of {summary['total']} statements</span></p>"
    )
    out.append("<table>")
    out.append(
        "<tr><th>statement</th><th>section</th><th>title</th><th>checks</th>"
        "<th>status</th><th>last verified</th><th>wall</th>"
        "<th>parameters</th></tr>"
    )
    for row in data["coverage"]:
        sha = row["git_sha"] or "—"
        out.append(
            "<tr>"
            f"<td><strong>{_esc(row['statement_id'])}</strong></td>"
            f"<td>{_esc(row['section'])}</td>"
            f"<td>{_esc(row['title'])}</td>"
            f"<td>{_check_cell(row['checks'])}</td>"
            f"<td>{_badge(row['status'])}</td>"
            f"<td><code>{_esc(sha)}</code></td>"
            f"<td>{_esc(_ms(row['wall_s']))}</td>"
            f"<td>{_esc(row['parameters'] or '—')}</td>"
            "</tr>"
        )
    out.append("</table>")
    out.append(
        '<p class="meta">verified = evidence manifest from the current '
        "commit; stale = evidence exists but predates the current commit; "
        "unverified = mapped to checks but no published manifest yet "
        "(run <code>pytest benchmarks/</code>).</p>"
    )
    return out


def _trajectory_section(data: Dict[str, Any]) -> List[str]:
    trajectories = data["trajectories"]
    out = ["<h2>Bench trajectories</h2>"]
    if not trajectories["series"]:
        out.append(
            '<p class="meta">No BENCH_*.json trajectory records found; '
            "run <code>repro bench</code> to produce one.</p>"
        )
        return out
    out.append(
        f'<p class="meta">{trajectories["count"]} trajectory record(s): '
        + " → ".join(f"<code>{_esc(sha)}</code>" for sha in trajectories["shas"])
        + "</p>"
    )
    out.append("<table>")
    out.append(
        "<tr><th>bench</th><th>median trend (oldest → newest)</th>"
        "<th>latest median</th><th>IQR</th><th>repeats</th></tr>"
    )
    for name in sorted(trajectories["series"]):
        series = trajectories["series"][name]
        latest = trajectories["latest"][name]
        out.append(
            "<tr>"
            f"<td><code>{_esc(name)}</code></td>"
            f"<td>{sparkline_svg(series)}</td>"
            f"<td>{_esc(_ms(latest['median_s']))}</td>"
            f"<td>{_esc(_ms(latest.get('iqr_s')))}</td>"
            f"<td>{_esc(latest.get('repeats') or '—')}</td>"
            "</tr>"
        )
    out.append("</table>")
    return out


def _telemetry_section(data: Dict[str, Any]) -> List[str]:
    telemetry = data.get("telemetry")
    out = ["<h2>CONGEST telemetry (Theorem 5 simulation)</h2>"]
    if not telemetry:
        out.append('<p class="meta">Telemetry collection was skipped.</p>')
        return out
    out.append(
        f'<p class="meta">Seeded simulation (seed={_esc(telemetry["seed"])}) '
        "on both promise sides; distributions are per round.</p>"
    )
    out.append("<table>")
    out.append(
        "<tr><th>metric</th><th>count</th><th>min</th><th>mean</th>"
        "<th>p50</th><th>p90</th><th>p99</th><th>max</th></tr>"
    )
    for name, summary in sorted(telemetry["metrics"].items()):
        out.append(
            "<tr>"
            f"<td><code>{_esc(name)}</code></td>"
            f"<td>{_esc(summary['count'])}</td>"
            + "".join(
                f"<td>{summary[field]:.2f}</td>"
                for field in ("min", "mean", "p50", "p90", "p99", "max")
            )
            + "</tr>"
        )
    out.append("</table>")
    out.append("<table style=\"margin-top: .8rem\">")
    out.append(
        "<tr><th>side</th><th>rounds T</th><th>|cut|</th>"
        "<th>measured bits</th><th>2T·|cut|·B total</th>"
        "<th>within bound</th></tr>"
    )
    for side in telemetry["sides"]:
        verdict = "ok" if side["within_bound"] else "bad"
        out.append(
            "<tr>"
            f"<td>{_esc(side['side'])}</td>"
            f"<td>{_esc(side['rounds'])}</td>"
            f"<td>{_esc(side['cut_edges'])}</td>"
            f"<td>{_esc(side['measured_bits'])}</td>"
            f"<td>{_esc(side['analytic_bit_bound'])}</td>"
            f"<td>{_badge(verdict)}</td>"
            "</tr>"
        )
    out.append("</table>")
    return out


def _cache_section(data: Dict[str, Any]) -> List[str]:
    out = ["<h2>Result store</h2>"]
    cache = data.get("cache")
    if not cache:
        out.append(
            '<p class="meta">No cache.* counters recorded — runs were made '
            "with the result store off.</p>"
        )
        return out
    rate = f"{cache['hit_rate']:.1%}" if cache.get("hit_rate") is not None else "n/a"
    out.append(
        f'<p class="meta">aggregated over run manifests: {cache["hits"]} hits / '
        f'{cache["misses"]} misses ({rate}), '
        f'{cache["bytes_written"]} bytes written.</p>'
    )
    return out


def _stall_section(data: Dict[str, Any]) -> List[str]:
    """Watchdog stall reports folded in from run manifests, if any.

    The healthy case renders nothing at all — stalls are exceptional,
    and an always-empty section would train readers to skip it.
    """
    stalls = data.get("stalls")
    if not stalls:
        return []
    out = ["<h2>Stall watchdog reports</h2>"]
    out.append(
        f'<p class="meta">{_badge("bad")} {stalls["stalled_units"]} stalled '
        f'unit(s) across run manifests; {stalls["requeued_units"]} requeued '
        "on the serial fallback (see the \"Live monitoring\" section of "
        "docs/OBSERVABILITY.md).</p>"
    )
    if stalls["reports"]:
        out.append("<table>")
        out.append(
            "<tr><th>manifest</th><th>unit</th><th>worker pid</th>"
            "<th>waited</th><th>deadline</th><th>requeued</th></tr>"
        )
        for report in stalls["reports"]:
            verdict = "ok" if report.get("requeued") else "bad"
            out.append(
                "<tr>"
                f"<td><code>{_esc(report.get('manifest', '—'))}</code></td>"
                f"<td><code>{_esc(report.get('uid', '—'))}</code></td>"
                f"<td>{_esc(report.get('worker', '—'))}</td>"
                f"<td>{_esc(report.get('waited_s', '—'))} s</td>"
                f"<td>{_esc(report.get('deadline_s', '—'))} s</td>"
                f"<td>{_badge(verdict)} {_esc(bool(report.get('requeued')))}</td>"
                "</tr>"
            )
        out.append("</table>")
    return out


def _manifest_section(data: Dict[str, Any]) -> List[str]:
    out = ["<h2>Run manifest inventory</h2>"]
    manifests = data["manifests"]
    if not manifests:
        out.append(
            f'<p class="meta">No run manifests in '
            f"<code>{_esc(data['results_dir'])}</code>.</p>"
        )
        return out
    out.append("<table>")
    out.append(
        "<tr><th>manifest</th><th>git sha</th><th>schema</th>"
        "<th>wall</th><th>path</th></tr>"
    )
    for entry in manifests:
        out.append(
            "<tr>"
            f"<td><code>{_esc(entry['name'])}</code></td>"
            f"<td><code>{_esc(entry['git_sha'] or '—')}</code></td>"
            f"<td>{_esc(entry['schema_version'])}</td>"
            f"<td>{_esc(_ms(entry['wall_s']))}</td>"
            f"<td><code>{_esc(entry['path'])}</code></td>"
            "</tr>"
        )
    out.append("</table>")
    return out


def render_report(data: Dict[str, Any]) -> str:
    """The complete, self-contained HTML document for a report model."""
    provenance = data["provenance"]
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        "<title>repro dashboard — Beyond Alice and Bob</title>",
        f"<style>{_CSS}</style>",
        "</head><body>",
        "<h1>Beyond Alice and Bob — reproduction dashboard</h1>",
        (
            '<p class="meta">'
            f"commit <code>{_esc(provenance['git_sha'])}</code> · "
            f"host <code>{_esc(provenance['hostname'])}</code> · "
            f"Python {_esc(provenance['python_version'])} · "
            f"results from <code>{_esc(data['results_dir'])}</code></p>"
        ),
    ]
    problems = data["registry_problems"]
    if problems:
        parts.append('<div class="problems"><strong>Registry problems</strong><ul>')
        for problem in problems:
            parts.append(f"<li>{_esc(problem)}</li>")
        parts.append("</ul></div>")
    parts.extend(_coverage_section(data))
    parts.extend(_trajectory_section(data))
    parts.extend(_telemetry_section(data))
    parts.extend(_cache_section(data))
    parts.extend(_stall_section(data))
    parts.extend(_manifest_section(data))
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def build_dashboard(
    out_dir: Union[str, pathlib.Path],
    results_dir: Union[str, pathlib.Path, None] = None,
    seed: int = 0,
    include_telemetry: bool = True,
) -> Dict[str, Any]:
    """Collect, render, and write ``<out_dir>/report.html``.

    Returns ``{"path", "unmapped", "problems", "summary"}`` so the CLI
    can report the location and fail on an incomplete registry.
    """
    from .collect import collect_report

    if results_dir is None:
        results_dir = pathlib.Path("benchmarks") / "results"
    data = collect_report(
        pathlib.Path(results_dir), seed=seed, include_telemetry=include_telemetry
    )
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.html"
    path.write_text(render_report(data))
    return {
        "path": path,
        "unmapped": data["unmapped"],
        "problems": data["registry_problems"],
        "summary": data["summary"],
    }
