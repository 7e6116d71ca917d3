import json
import xml.etree.ElementTree as ET

import pytest

from debatesum.chart import build_chart, render_chart
from debatesum.errors import ComputationError
from debatesum.pipeline import compute_charts


def pair(label, a, d, sim=1.0):
    """An ``alignment.json`` pair entry."""
    return {"label": label, "agree_cluster_id": a, "disagree_cluster_id": d, "similarity": sim}


def three_bar_chart():
    sizes = {"a1": 5, "a2": 2, "a3": 4, "d1": 3, "d2": 2, "d3": 1}
    pairs = [pair("ice", "a1", "d1"), pair("co2", "a2", "d2"), pair("tax", "a3", "d3")]
    return build_chart("t1", pairs, sizes)


class TestBuildChart:
    def test_counts_from_member_sizes(self):
        chart = three_bar_chart()
        by_label = {b["label"]: (b["agree_count"], b["disagree_count"]) for b in chart["bars"]}
        assert by_label == {"ice": (5, 3), "co2": (2, 2), "tax": (4, 1)}

    def test_sorted_by_total_desc_then_label(self):
        chart = three_bar_chart()
        totals = [b["agree_count"] + b["disagree_count"] for b in chart["bars"]]
        assert totals == sorted(totals, reverse=True)
        assert [b["label"] for b in chart["bars"]] == ["ice", "tax", "co2"]

    def test_soft_membership_counts_once_per_bar(self):
        # the same sentences sit in two agree clusters; each bar counts them
        def side(members_by_id):
            clusters = [{"cluster_id": c, "label": None, "members": m} for c, m in members_by_id.items()]
            return {"clusters": clusters, "points": None}

        clusters_doc = {"topics": [{"topic_id": "t", "sides": {
            "agree": side({"a1": ["s1", "s2"], "a2": ["s1", "s2"]}),
            "disagree": side({"d1": ["s3"], "d2": ["s4"]}),
        }}]}
        alignment_doc = {"topics": [
            {"topic_id": "t", "pairs": [pair("ice", "a1", "d1"), pair("sea", "a2", "d2")]}
        ]}
        chart = compute_charts(clusters_doc, alignment_doc)["t"]
        assert [(b["agree_count"], b["disagree_count"]) for b in chart["bars"]] == [(2, 1), (2, 1)]

    def test_zero_pairs_is_valid_empty_chart(self):
        assert build_chart("t", [], {}) == {"topic_id": "t", "bars": []}

    def test_dangling_reference_rejected(self):
        with pytest.raises(ComputationError):
            build_chart("t", [pair("x", "missing-a", "missing-d")], {})

    def test_duplicate_labels_disambiguated(self):
        sizes = {"a1": 3, "a2": 2, "d1": 3, "d2": 2}
        chart = build_chart("t", [pair("ice", "a1", "d1"), pair("ice", "a2", "d2")], sizes)
        assert [b["label"] for b in chart["bars"]] == ["ice", "ice (2)"]

    def test_duplicate_label_suffix_skips_labels_in_use(self):
        sizes = {"a1": 2, "a2": 2, "a3": 2, "d1": 1, "d2": 1, "d3": 1}
        pairs = [pair("ice", "a1", "d1"), pair("ice", "a2", "d2"), pair("ice (2)", "a3", "d3")]
        labels = [b["label"] for b in build_chart("t", pairs, sizes)["bars"]]
        assert sorted(labels) == ["ice", "ice (2)", "ice (3)"]


class TestRenderChart:
    def test_json_round_trip(self):
        sizes = {"a1": 2, "a2": 1, "d1": 1, "d2": 3}
        chart = build_chart("t", [pair("ice", "a1", "d1", 0.8125), pair("co2", "a2", "d2", 2 / 3)], sizes)
        assert json.loads(render_chart(chart, "json")) == chart

    def test_byte_deterministic(self):
        chart = three_bar_chart()
        assert render_chart(chart, "json") == render_chart(chart, "json")
        assert render_chart(chart, "html") == render_chart(chart, "html")

    def test_empty_chart_html_has_empty_state(self):
        html = render_chart({"topic_id": "t", "bars": []}, "html").decode("utf-8")
        assert "empty-state" in html
        assert "<svg" not in html

    def test_three_bars_give_six_plot_rects(self):
        html = render_chart(three_bar_chart(), "html").decode("utf-8")
        svg = html[html.index("<svg") : html.index("</svg>") + len("</svg>")]
        root = ET.fromstring(svg)  # XML parse doubles as a well-formedness check
        ns = "{http://www.w3.org/2000/svg}"
        plot_groups = [g for g in root.iter(f"{ns}g") if g.get("class") == "plot"]
        assert len(plot_groups) == 1
        rects = plot_groups[0].findall(f"{ns}rect")
        assert len(rects) == 6

    def test_svg_viewbox_valid(self):
        html = render_chart(three_bar_chart(), "html").decode("utf-8")
        svg = html[html.index("<svg") : html.index("</svg>") + 6]
        root = ET.fromstring(svg)
        parts = root.get("viewBox").split()
        assert len(parts) == 4
        assert float(parts[2]) > 0 and float(parts[3]) > 0

    def test_bar_heights_proportional_to_counts(self):
        chart = three_bar_chart()
        html = render_chart(chart, "html").decode("utf-8")
        svg = html[html.index("<svg") : html.index("</svg>") + 6]
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        plot = [g for g in root.iter(f"{ns}g") if g.get("class") == "plot"][0]
        heights = [float(r.get("height")) for r in plot.findall(f"{ns}rect")]
        counts = [float(r.get("data-count")) for r in plot.findall(f"{ns}rect")]
        max_count = max(counts)
        unit = 300.0 / max_count  # plot height over the tallest bar
        for h, c in zip(heights, counts):
            assert abs(h - c * unit) <= 0.5

    def test_full_html_well_formed(self):
        # the whole page is XML-parseable (tags balanced, attributes quoted)
        html = render_chart(three_bar_chart(), "html").decode("utf-8")
        body = html.split("\n", 1)[1]  # drop the doctype line for the XML parser
        ET.fromstring(body)

    def test_unknown_format_rejected(self):
        with pytest.raises(ComputationError):
            render_chart(three_bar_chart(), "png")

    def test_label_escaping(self):
        chart = build_chart("t", [pair('a<b>&"c', "a1", "d1", 0.5)], {"a1": 1, "d1": 2})
        html = render_chart(chart, "html").decode("utf-8")
        assert "a<b>" not in html
        assert "a&lt;b&gt;" in html
