"""Exporters for metrics snapshots and span trees.

Three output shapes cover the consumers the repo already has:

* JSON — the CI artifact and anything programmatic,
* CSV — spreadsheets / the eval harness' result tables,
* pretty tables / trees — the CLI ``--metrics`` / ``--trace`` flags.

Plus the profiling-hook constructors: :func:`json_file_hook` and
:func:`span_json_file_hook` return callables suitable for
``MetricsRegistry.add_hook`` / ``Tracer.add_hook`` that persist every
snapshot / finished root span to disk.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from pathlib import Path

from .metrics import MetricsSnapshot, SnapshotHook
from .tracing import Span, SpanHook

__all__ = [
    "snapshot_to_dict",
    "snapshot_to_json",
    "snapshot_to_csv",
    "render_table",
    "render_metrics_table",
    "render_pruning_waterfall",
    "span_to_dict",
    "spans_to_json",
    "render_span_tree",
    "render_span_timeline",
    "spans_to_folded",
    "render_flamegraph_svg",
    "json_file_hook",
    "span_json_file_hook",
]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def snapshot_to_dict(snapshot: MetricsSnapshot) -> dict[str, object]:
    """A plain-data form of *snapshot* (JSON-ready)."""
    return {
        "counters": dict(sorted(snapshot.counters.items())),
        "gauges": dict(sorted(snapshot.gauges.items())),
        "histograms": {
            name: {
                "count": summary.count,
                "total": summary.total,
                "min": summary.minimum,
                "max": summary.maximum,
                "mean": summary.mean,
                "p50": summary.p50,
                "p95": summary.p95,
                "p99": summary.p99,
                "buckets": [list(pair) for pair in summary.buckets],
            }
            for name, summary in sorted(snapshot.histograms.items())
        },
    }


def snapshot_to_json(snapshot: MetricsSnapshot, *, indent: int = 2) -> str:
    """*snapshot* as a JSON document."""
    return json.dumps(snapshot_to_dict(snapshot), indent=indent, sort_keys=True)


def snapshot_to_csv(snapshot: MetricsSnapshot) -> str:
    """*snapshot* as ``kind,name,value`` CSV rows (histograms -> mean)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["kind", "name", "value"])
    for name, value in sorted(snapshot.counters.items()):
        writer.writerow(["counter", name, value])
    for name, value in sorted(snapshot.gauges.items()):
        writer.writerow(["gauge", name, value])
    for name, summary in sorted(snapshot.histograms.items()):
        writer.writerow(["histogram", name, summary.mean])
    return buffer.getvalue()


def _format_value(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:.6g}"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """A generic fixed-width text table (headers, dashed rule, rows).

    The shared renderer behind the metrics table and the lint report:
    column widths fit the widest cell, the last column is not padded.
    """
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    header_line = "  ".join(
        header.ljust(width) for header, width in zip(headers, widths)
    ).rstrip()
    lines: list[str] = []
    if title is not None:
        lines.append(title)
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells:
        lines.append(
            "  ".join(
                cell.ljust(width) for cell, width in zip(row, widths)
            ).rstrip()
        )
    return "\n".join(lines)


def render_metrics_table(snapshot: MetricsSnapshot) -> str:
    """A fixed-width table of every instrument, grouped and sorted."""
    rows: list[tuple[str, str, str]] = []
    for name, value in sorted(snapshot.counters.items()):
        rows.append(("counter", name, _format_value(value)))
    for name, value in sorted(snapshot.gauges.items()):
        rows.append(("gauge", name, _format_value(value)))
    for name, summary in sorted(snapshot.histograms.items()):
        detail = (
            f"n={summary.count} mean={summary.mean:.6g} "
            f"min={summary.minimum:.6g} max={summary.maximum:.6g} "
            f"p50={summary.p50:.6g} p95={summary.p95:.6g} "
            f"p99={summary.p99:.6g}"
        )
        rows.append(("histogram", name, detail))
    if not rows:
        return "(no metrics recorded)"
    return render_table(("kind", "name", "value"), rows)


def render_pruning_waterfall(
    stages: Sequence[tuple[str, int, int]],
    snapshot: MetricsSnapshot,
) -> str:
    """One query's pruning waterfall: per-tier survival plus work cost.

    *stages* are ordered ``(name, candidates_in, candidates_out)``
    triples (e.g. from ``CascadeStats``); *snapshot* is the same query's
    metrics snapshot, mined for the work each surviving candidate cost —
    index node reads, DTW cells, early-abandon depth, storage pages.
    The function takes plain data, not core types, so it renders any
    layer's counters without an import cycle.
    """
    lines: list[str] = []
    if stages:
        name_w = max(len("stage"), max(len(name) for name, _, _ in stages))
        header = (
            f"{'stage':<{name_w}}  {'in':>8}  {'out':>8}  "
            f"{'pruned':>8}  kept"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for name, n_in, n_out in stages:
            pruned = n_in - n_out
            kept = f"{n_out / n_in:7.1%}" if n_in else "      -"
            lines.append(
                f"{name:<{name_w}}  {n_in:>8,}  {n_out:>8,}  "
                f"{pruned:>8,}  {kept}"
            )
    else:
        lines.append("(no cascade stages recorded)")

    counters = snapshot.counters
    node_reads = sum(
        value
        for name, value in counters.items()
        if name.startswith("index.") and name.endswith(".node_reads")
    )
    cost_rows: list[tuple[str, str]] = []
    if node_reads:
        cost_rows.append(("index node reads", _format_value(node_reads)))
    for label, counter in (
        ("DTW cells computed", "dtw.cells"),
        ("DTW verifications", "dtw.verifications"),
        ("early abandons", "dtw.early_abandons"),
        ("storage pages (random)", "storage.random_pages"),
        ("storage pages (sequential)", "storage.sequential_pages"),
    ):
        value = counters.get(counter)
        if value:
            cost_rows.append((label, _format_value(value)))
    depth = snapshot.histograms.get("dtw.abandon_depth")
    if depth is not None and depth.count:
        cost_rows.append(
            (
                "early-abandon depth",
                f"mean {depth.mean:.2f} of the fill swept "
                f"(min {depth.minimum:.2f}, max {depth.maximum:.2f}, "
                f"n={depth.count})",
            )
        )
    if cost_rows:
        lines.append("")
        label_w = max(len(label) for label, _ in cost_rows)
        for label, value in cost_rows:
            lines.append(f"{label:<{label_w}}  {value}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def span_to_dict(span: Span) -> dict[str, object]:
    """A plain-data form of *span* and its subtree (JSON-ready)."""
    return {
        "name": span.name,
        "attributes": dict(span.attributes),
        "wall_start": span.wall_start,
        "duration_seconds": span.duration,
        "children": [span_to_dict(child) for child in span.children],
    }


def spans_to_json(spans: list[Span], *, indent: int = 2) -> str:
    """A list of root spans as a JSON document."""
    return json.dumps(
        [span_to_dict(span) for span in spans], indent=indent, sort_keys=True
    )


def _render_span(span: Span, depth: int, lines: list[str]) -> None:
    attrs = ""
    if span.attributes:
        joined = ", ".join(
            f"{key}={value}" for key, value in sorted(span.attributes.items())
        )
        attrs = f"  [{joined}]"
    lines.append(f"{'  ' * depth}{span.name}  {span.duration * 1e3:.3f} ms{attrs}")
    for child in span.children:
        _render_span(child, depth + 1, lines)


def render_span_tree(spans: list[Span]) -> str:
    """Indented text tree of *spans* with millisecond durations."""
    if not spans:
        return "(no spans recorded)"
    lines: list[str] = []
    for span in spans:
        _render_span(span, 0, lines)
    return "\n".join(lines)


def render_span_timeline(spans: list[Span], *, width: int = 48) -> str:
    """A wall-clock-aligned text timeline of *spans* (one row per span).

    Bars are positioned by each span's ``wall_start`` relative to the
    earliest stamped span and scaled to the overall wall extent, so
    subtrees grafted back from worker processes line up on the same
    axis as the router's fan-out span.  Spans that were never stamped
    (hand-built trees) sit at the left edge.
    """
    if not spans:
        return "(no spans recorded)"
    flat: list[tuple[int, Span]] = []

    def visit(span: Span, depth: int) -> None:
        flat.append((depth, span))
        for child in span.children:
            visit(child, depth + 1)

    for span in spans:
        visit(span, 0)
    stamped = [span.wall_start for _, span in flat if span.wall_start > 0.0]
    base = min(stamped) if stamped else 0.0
    extent = max(
        (
            (span.wall_start - base if span.wall_start > 0.0 else 0.0)
            + span.duration
        )
        for _, span in flat
    )
    extent = extent or 1.0
    label_w = max(len("  " * depth + span.name) for depth, span in flat)
    lines: list[str] = []
    for depth, span in flat:
        offset_s = span.wall_start - base if span.wall_start > 0.0 else 0.0
        start = min(width - 1, int(offset_s / extent * width))
        length = max(1, int(round(span.duration / extent * width)))
        length = min(length, width - start)
        bar = " " * start + "#" * length
        label = ("  " * depth + span.name).ljust(label_w)
        lines.append(
            f"{label}  {span.duration * 1e3:9.3f} ms  |{bar.ljust(width)}|"
        )
    return "\n".join(lines)


def _self_seconds(span: Span) -> float:
    """Span time not accounted to children (clamped non-negative)."""
    return max(0.0, span.duration - sum(c.duration for c in span.children))


def spans_to_folded(spans: list[Span]) -> str:
    """Folded-stack lines (``root;child value``) for flamegraph tools.

    The classic Brendan Gregg collapse format: one line per unique
    root-to-frame path, the value being that frame's *self* time in
    integer microseconds, aggregated over every occurrence.  Feed the
    output to any ``flamegraph.pl``-compatible renderer, or to
    :func:`render_flamegraph_svg` for the built-in one.
    """
    aggregated: dict[str, int] = {}

    def visit(span: Span, prefix: str) -> None:
        path = f"{prefix};{span.name}" if prefix else span.name
        aggregated[path] = aggregated.get(path, 0) + int(
            round(_self_seconds(span) * 1e6)
        )
        for child in span.children:
            visit(child, path)

    for span in spans:
        visit(span, "")
    return "\n".join(
        f"{path} {value}" for path, value in sorted(aggregated.items())
    )


_FRAME_H = 18
_SVG_MARGIN = 4


def _frame_color(name: str) -> str:
    """A deterministic warm fill for *name* (stable across runs)."""
    digest = 0
    for char in name:
        digest = (digest * 131 + ord(char)) % 1000003
    red = 205 + digest % 50
    green = 90 + (digest // 50) % 120
    blue = 40 + (digest // 6000) % 60
    return f"rgb({red},{green},{blue})"


def _svg_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def render_flamegraph_svg(spans: list[Span], *, width: int = 1200) -> str:
    """A self-contained SVG flamegraph of *spans* (no JS, no deps).

    Frames are laid out icicle-style (roots on top), horizontally
    scaled by wall duration; each carries a ``<title>`` tooltip with
    its name, duration and attributes.  Deterministic: layout and
    colors are pure functions of the span tree.
    """
    if not spans:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{_FRAME_H}"><text x="4" y="13" font-size="11">'
            "no spans recorded</text></svg>"
        )
    total = sum(span.duration for span in spans)
    rects: list[str] = []
    max_depth = 0

    def visit(span: Span, x: float, frame_w: float, depth: int) -> None:
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        y = _SVG_MARGIN + depth * _FRAME_H
        label = span.name
        attrs = ", ".join(
            f"{key}={value}" for key, value in sorted(span.attributes.items())
        )
        tooltip = f"{label} — {span.duration * 1e3:.3f} ms"
        if attrs:
            tooltip += f" ({attrs})"
        rects.append(
            f'<g><rect x="{x:.2f}" y="{y}" width="{max(frame_w, 0.5):.2f}" '
            f'height="{_FRAME_H - 1}" fill="{_frame_color(label)}" '
            f'rx="1"><title>{_svg_escape(tooltip)}</title></rect>'
            + (
                f'<text x="{x + 3:.2f}" y="{y + _FRAME_H - 6}" '
                f'font-size="11" font-family="monospace">'
                f"{_svg_escape(label[: max(0, int(frame_w // 7))])}</text>"
                if frame_w > 20
                else ""
            )
            + "</g>"
        )
        child_total = sum(c.duration for c in span.children)
        scale = (
            frame_w / span.duration
            if span.duration > 0
            else (frame_w / child_total if child_total > 0 else 0.0)
        )
        cursor = x
        for child in span.children:
            child_w = child.duration * scale
            visit(child, cursor, child_w, depth + 1)
            cursor += child_w

    usable = width - 2 * _SVG_MARGIN
    cursor = float(_SVG_MARGIN)
    for span in spans:
        frame_w = (
            usable * (span.duration / total) if total > 0 else usable / len(spans)
        )
        visit(span, cursor, frame_w, 0)
        cursor += frame_w
    height = _SVG_MARGIN * 2 + (max_depth + 1) * _FRAME_H
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        f'<rect width="{width}" height="{height}" fill="#fdf6ec"/>'
        + "".join(rects)
        + "</svg>"
    )


# ----------------------------------------------------------------------
# Profiling hooks
# ----------------------------------------------------------------------


def json_file_hook(path: str | Path) -> SnapshotHook:
    """A snapshot hook that (re)writes *path* with the latest snapshot."""
    target = Path(path)

    def hook(snapshot: MetricsSnapshot) -> None:
        target.write_text(snapshot_to_json(snapshot) + "\n")

    return hook


def span_json_file_hook(path: str | Path) -> SpanHook:
    """A span hook appending each finished root span to *path* (JSONL)."""
    target = Path(path)

    def hook(span: Span) -> None:
        with target.open("a") as handle:
            handle.write(json.dumps(span_to_dict(span), sort_keys=True) + "\n")

    return hook
