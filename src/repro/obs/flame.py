"""Dependency-free flamegraph rendering for deep-profile output.

Input is the folded-stack sample dict produced by
:mod:`repro.obs.deepprof` (``"seg;seg;seg" -> count``); output is one
self-contained inline SVG — no scripts, no external references, no
stylesheets — suitable both as a standalone file (``repro flame``) and
embedded verbatim inside the HTML dashboard.

Rendering is byte-deterministic: children are laid out in sorted name
order, colors are a stable CRC32 hash of the frame name into a warm
hue band, and all geometry is formatted with fixed precision.  Two
runs over the same samples produce identical bytes.

:func:`folded_from_spans` converts a recorded span tree (SpanRecord
objects or ``events.jsonl`` span dicts) into folded samples weighted
by self-time in microseconds, so ``repro flame events.jsonl`` works on
any profiled run even without ``--deep-profile``.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union
from xml.sax.saxutils import escape, quoteattr

from .recorder import SpanRecord, span_records

#: Pixel height of one stack level.
ROW_HEIGHT = 18

#: Rectangles narrower than this are dropped (invisible anyway, and
#: skipping them bounds the SVG size on very wide profiles).
MIN_RECT_WIDTH = 0.3

#: Vertical pixels reserved for the title line.
HEADER_HEIGHT = 24


def parse_folded(text: str) -> Dict[str, int]:
    """Parse folded-stack text back into a sample dict.

    Accepts the output of :func:`repro.obs.deepprof.folded_lines` (and
    any Brendan-Gregg-style collapsed file): one ``stack count`` pair
    per line, blank lines ignored.  Raises ``ValueError`` naming the
    offending line number on malformed input.
    """
    samples: Dict[str, int] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        key, _, count = line.rpartition(" ")
        if not key or not count.isdigit():
            raise ValueError(
                f"line {number}: expected 'stack count', got {line!r}"
            )
        samples[key] = samples.get(key, 0) + int(count)
    return samples


def folded_from_spans(
    spans: Sequence[Union[SpanRecord, Mapping[str, Any]]],
) -> Dict[str, int]:
    """Fold a span tree into samples weighted by self-time (µs).

    Each span contributes one key — its root-to-node name path — with
    weight ``max(0, duration - sum(children))`` in whole microseconds.
    Zero-weight keys are dropped, matching how a sampling profiler
    would simply never observe them.
    """
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for record in span_records(spans):
        children.setdefault(record.parent, []).append(record)
    samples: Dict[str, int] = {}

    def walk(record: SpanRecord, path: List[str]) -> None:
        path = path + [record.name.replace(";", ",").replace(" ", "_")]
        kids = children.get(record.index, [])
        child_total = sum(kid.duration_s for kid in kids)
        self_us = int(round(max(0.0, record.duration_s - child_total) * 1e6))
        if self_us > 0:
            key = ";".join(path)
            samples[key] = samples.get(key, 0) + self_us
        for kid in kids:
            walk(kid, path)

    for root in children.get(None, []):
        walk(root, [])
    return samples


# -- tree construction -------------------------------------------------


class _Node:
    __slots__ = ("name", "children", "self_value", "total")

    def __init__(self, name: str) -> None:
        self.name = name
        self.children: Dict[str, "_Node"] = {}
        self.self_value = 0
        self.total = 0


def _build_tree(samples: Dict[str, int]) -> _Node:
    root = _Node("all")
    for key in sorted(samples):
        count = int(samples[key])
        if count <= 0:
            continue
        node = root
        for part in key.split(";"):
            node = node.children.setdefault(part, _Node(part))
        node.self_value += count

    def total(node: _Node) -> int:
        node.total = node.self_value + sum(
            total(child) for child in node.children.values()
        )
        return node.total

    total(root)
    return root


def _depth(node: _Node) -> int:
    if not node.children:
        return 1
    return 1 + max(_depth(child) for child in node.children.values())


def _color(name: str) -> str:
    """A stable warm color for a frame name (CRC32 into a hue band)."""
    digest = zlib.crc32(name.encode("utf-8"))
    hue = digest % 55  # red..yellow flame band
    lightness = 58 + (digest >> 8) % 10
    return f"hsl({hue},72%,{lightness}%)"


def flamegraph_svg(
    samples: Dict[str, int],
    title: str = "repro flamegraph",
    width: int = 1200,
) -> str:
    """Render folded samples as one self-contained SVG flamegraph.

    Bottom-up layout (root row at the bottom, leaves on top), hover
    tooltips via ``<title>`` children, no scripts or external
    references.  Deterministic for identical input.
    """
    root = _build_tree(samples)
    levels = _depth(root)
    height = HEADER_HEIGHT + levels * ROW_HEIGHT + 4
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="monospace" font-size="11">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#fdfdfd"/>',
        f'<text x="{width / 2:.1f}" y="15" text-anchor="middle" '
        f'font-size="13">{escape(title)} '
        f"({root.total} samples)</text>",
    ]
    grand_total = root.total or 1
    scale = width / grand_total

    def emit(node: _Node, x: float, level: int) -> None:
        node_width = node.total * scale
        if node_width < MIN_RECT_WIDTH:
            return
        y = height - (level + 1) * ROW_HEIGHT - 2
        share = node.total / grand_total
        tooltip = f"{node.name} — {node.total} samples ({share * 100:.1f}%)"
        parts.append("<g>")
        parts.append(f"<title>{escape(tooltip)}</title>")
        parts.append(
            f'<rect x="{x:.2f}" y="{y}" width="{node_width:.2f}" '
            f'height="{ROW_HEIGHT - 1}" fill={quoteattr(_color(node.name))} '
            f'stroke="#fdfdfd" stroke-width="0.5" rx="1"/>'
        )
        if node_width >= 40:
            label = node.name
            max_chars = max(1, int(node_width // 7))
            if len(label) > max_chars:
                label = label[: max(1, max_chars - 1)] + "…"
            parts.append(
                f'<text x="{x + 3:.2f}" y="{y + ROW_HEIGHT - 6}" '
                f'fill="#222">{escape(label)}</text>'
            )
        parts.append("</g>")
        child_x = x
        for name in sorted(node.children):
            child = node.children[name]
            emit(child, child_x, level + 1)
            child_x += child.total * scale

    emit(root, 0.0, 0)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
