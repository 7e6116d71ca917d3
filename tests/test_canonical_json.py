"""The artifact writer gives exactly the bytes of the ``json.dumps`` formula."""

import json
import math
import subprocess
import sys
from collections import Counter, OrderedDict
from enum import Enum, IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debatesum import canonical_json, pipeline
from debatesum.canonical_json import to_json_bytes
from debatesum.saliency import Feature

from conftest import src_env


def formula(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


class Color(str, Enum):
    RED = "red"
    BLUE = "blue"


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Items(list):
    pass


text = st.text(alphabet=st.characters(exclude_categories=("Cs",)), max_size=12)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    text,
)
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(text, children, max_size=5),
        # subclasses take the writer's general path, not its exact-type one
        st.lists(children, max_size=5).map(Items),
        st.dictionaries(text, children, max_size=5).map(Counter),
        st.dictionaries(text, children, max_size=5).map(OrderedDict),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, database=None)
@given(documents)
def test_generated_documents_match_the_formula(doc):
    assert to_json_bytes(doc) == formula(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "values": [math.nan, -math.inf]},
        {"zero": -0.0, "big": 1e16, "small": 5e-324, "int": 10**30, "neg": -7},
        {"np": np.float64(0.1), "list": [np.float64(1e16), np.float64(-0.0), np.float64("nan")]},
        {Feature.CB: Feature.SP, Color.RED: [Color.BLUE], "plain": Color.RED},
        {1: "int", 2.5: "float", -3: "negative", np.float64(0.5): "numpy"},
        {True: "true", False: "false"},
        {"levels": [Level.LOW, {Level.HIGH: Level.HIGH}]},
        {None: "null"},
        {math.inf: 1, -math.inf: 2, 0.1: 3},
        {"tuple": (1, (2, 3), ()), "nested": {"a": {}, "b": [], "c": [[], {}]}},
        {"é": "naïve — ünïcödé ✓ 気候", "ctrl": "tab\there\nline\x00\x1f \"\\/"},
        [], {}, (), "top-level string", 3.5, 42, None, True, False, [[[{}]]],
    ],
)
def test_explicit_cases_match_the_formula(doc):
    assert to_json_bytes(doc) == formula(doc)


def test_a_document_encoded_in_many_chunks_matches_the_formula():
    # the writer encodes its pending parts at the end of a container once more
    # than _CHUNK_PARTS are pending; this document crosses that many times over
    words = ["plain", "naïve", "气候 ✓", "tab\there", 'say "no"', "back\\slash", "\x00\x1f", "é\n"]
    doc = {
        f"topic {i} é": [
            {
                "id": f"t{i}c{j}",
                "sentences": [words[(i + j + k) % len(words)] for k in range(40)],
                "scores": [k / 7 for k in range(10)],
                "nested": [[j, None, True], {"ü": -0.0}, []],
            }
            for j in range(30)
        ]
        for i in range(20)
    }
    expected = formula(doc)
    assert expected.count(b"\n") > 5 * canonical_json._CHUNK_PARTS
    assert to_json_bytes(doc) == expected


@pytest.mark.parametrize(
    "doc",
    [
        {1, 2}, b"bytes", np.int64(3), {"a": {1}}, [b"x"], {"a": np.int64(1)},
        {(1, 2): "tuple key"}, {1: "mixed", "b": "key types"},
    ],
)
def test_what_json_rejects_raises_type_error(doc):
    with pytest.raises(TypeError):
        formula(doc)
    with pytest.raises(TypeError):
        to_json_bytes(doc)


def test_pipeline_and_chart_share_the_writer():
    from debatesum import chart

    assert pipeline.to_json_bytes is to_json_bytes
    pair = {"label": "carbon dioxide", "agree_cluster_id": "a", "disagree_cluster_id": "d",
            "similarity": 0.75}
    doc = chart.build_chart("t1", [pair], {"a": 3, "d": 1})
    assert chart.render_chart(doc, "json") == formula(doc)


def test_chart_imports_the_writer_without_the_pipeline():
    script = "import sys, debatesum.chart; print('debatesum.pipeline' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", script], env=src_env(), capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout.strip()) == (0, "False")
