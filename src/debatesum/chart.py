"""The Chart Summary: aligned cluster pairs rendered as grouped bars.

Bar heights are salient-sentence counts of the aligned clusters, one
agree/disagree bar pair per label. Rendering is fully self-contained: JSON
with canonical key order, or a single HTML file with an inline SVG chart and
a data-table fallback. Both renderings are byte-deterministic.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .canonical_json import to_json_bytes
from .errors import ComputationError

AGREE_COLOR = "#2b7bba"
DISAGREE_COLOR = "#d1495b"


def build_chart(topic_id: str, pairs: Sequence[Mapping], sizes: Mapping[str, int]) -> dict:
    """The chart document ``chart_<topic>.json`` holds: one bar per aligned pair
    (an ``alignment.json`` pair entry), its heights the member counts
    (``sizes``: cluster id -> count) of the pair's clusters.

    Bars sort by total count descending (ties alphabetical); a label that an
    earlier bar shows gets the first numeric suffix that no bar's label takes,
    so labels stay unique.
    """
    bars = []
    for pair in pairs:
        agree, disagree = pair["agree_cluster_id"], pair["disagree_cluster_id"]
        if agree not in sizes or disagree not in sizes:
            raise ComputationError(f"aligned pair {pair['label']!r} references an unknown cluster id")
        bars.append({"label": pair["label"], "agree_count": sizes[agree],
                     "disagree_count": sizes[disagree], "similarity": float(pair["similarity"])})
    bars.sort(key=lambda b: (-(b["agree_count"] + b["disagree_count"]), b["label"]))
    taken = {bar["label"] for bar in bars}
    shown: set[str] = set()
    for bar in bars:
        label, n = bar["label"], 2
        if label in shown:
            while f"{label} ({n})" in taken:
                n += 1
            bar["label"] = f"{label} ({n})"
            taken.add(bar["label"])
        shown.add(bar["label"])
    return {"topic_id": topic_id, "bars": bars}


def render_chart(doc: Mapping, format: str = "json") -> bytes:
    """Serialize a chart document to canonical JSON or a self-contained HTML page."""
    if format == "json":
        return to_json_bytes(doc)
    if format == "html":
        return _render_html(doc).encode("utf-8")
    raise ComputationError(f"unknown chart format {format!r} (expected 'json' or 'html')")


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def _render_svg(bars: Sequence[Mapping]) -> str:
    margin_left, margin_top = 60.0, 30.0
    plot_w, plot_h = 640.0, 300.0
    label_band = 70.0
    width = margin_left + plot_w + 20.0
    height = margin_top + plot_h + label_band

    n = len(bars)
    max_count = max(max(b["agree_count"], b["disagree_count"]) for b in bars)
    max_count = max(max_count, 1)
    group_w = plot_w / n
    bar_w = group_w * 0.32
    baseline = margin_top + plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} {height:.0f}" '
        f'width="{width:.0f}" height="{height:.0f}" role="img">'
    ]
    # y axis with integer ticks
    step = max(1, -(-max_count // 5))
    parts.append('<g class="axis" stroke="#444" font-size="11" font-family="sans-serif">')
    parts.append(
        f'<line x1="{margin_left:.2f}" y1="{margin_top:.2f}" '
        f'x2="{margin_left:.2f}" y2="{baseline:.2f}"/>'
    )
    parts.append(
        f'<line x1="{margin_left:.2f}" y1="{baseline:.2f}" '
        f'x2="{margin_left + plot_w:.2f}" y2="{baseline:.2f}"/>'
    )
    tick = 0
    while tick <= max_count:
        y = baseline - tick / max_count * plot_h
        parts.append(f'<line x1="{margin_left - 4:.2f}" y1="{y:.2f}" x2="{margin_left:.2f}" y2="{y:.2f}"/>')
        parts.append(
            f'<text x="{margin_left - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" stroke="none" '
            f'fill="#444">{tick}</text>'
        )
        tick += step
    parts.append(
        f'<text x="14" y="{margin_top + plot_h / 2:.2f}" stroke="none" fill="#444" '
        f'transform="rotate(-90 14 {margin_top + plot_h / 2:.2f})" '
        f'text-anchor="middle">salient sentences</text>'
    )
    parts.append("</g>")

    parts.append('<g class="plot">')
    for i, bar in enumerate(bars):
        group_x = margin_left + i * group_w
        center = group_x + group_w / 2
        for offset, count, color in (
            (-bar_w, bar["agree_count"], AGREE_COLOR),
            (0.0, bar["disagree_count"], DISAGREE_COLOR),
        ):
            h = count / max_count * plot_h
            parts.append(
                f'<rect x="{center + offset:.2f}" y="{baseline - h:.2f}" '
                f'width="{bar_w:.2f}" height="{h:.2f}" fill="{color}" '
                f'data-count="{count}"/>'
            )
    parts.append("</g>")

    parts.append('<g class="labels" font-size="11" font-family="sans-serif" fill="#222">')
    for i, bar in enumerate(bars):
        center = margin_left + i * group_w + group_w / 2
        parts.append(
            f'<text x="{center:.2f}" y="{baseline + 14:.2f}" text-anchor="end" '
            f'transform="rotate(-35 {center:.2f} {baseline + 14:.2f})">{_escape(bar["label"])}</text>'
        )
    parts.append("</g>")

    legend_y = height - 16.0
    parts.append('<g class="legend" font-size="12" font-family="sans-serif">')
    parts.append(
        f'<rect x="{margin_left:.2f}" y="{legend_y - 10:.2f}" width="12" height="12" fill="{AGREE_COLOR}"/>'
        f'<text x="{margin_left + 18:.2f}" y="{legend_y:.2f}" fill="#222">agree</text>'
        f'<rect x="{margin_left + 90:.2f}" y="{legend_y - 10:.2f}" width="12" height="12" fill="{DISAGREE_COLOR}"/>'
        f'<text x="{margin_left + 108:.2f}" y="{legend_y:.2f}" fill="#222">disagree</text>'
    )
    parts.append("</g>")
    parts.append("</svg>")
    return "".join(parts)


def _render_html(doc: Mapping) -> str:
    title = f"Chart Summary: {_escape(doc['topic_id'])}"
    if doc["bars"]:
        body = _render_svg(doc["bars"])
        rows = "\n".join(
            f"<tr><td>{_escape(b['label'])}</td><td>{b['agree_count']}</td>"
            f"<td>{b['disagree_count']}</td><td>{b['similarity']:.4f}</td></tr>"
            for b in doc["bars"]
        )
        table = (
            "<table>\n<thead><tr><th>label</th><th>agree</th><th>disagree</th>"
            "<th>similarity</th></tr></thead>\n<tbody>\n" + rows + "\n</tbody>\n</table>"
        )
    else:
        body = '<p class="empty-state">No aligned clusters: nothing to chart for this topic.</p>'
        table = ""
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8"/>
<title>{title}</title>
<style>
body {{ font-family: sans-serif; margin: 2em; color: #222; }}
table {{ border-collapse: collapse; margin-top: 1.5em; }}
td, th {{ border: 1px solid #999; padding: 4px 10px; text-align: left; }}
.empty-state {{ color: #666; font-style: italic; }}
</style>
</head>
<body>
<h1>{title}</h1>
{body}
{table}
</body>
</html>
"""
