"""Pinned sha256 of every artifact the pipeline writes for the sample data.

A change that alters any output byte fails here, so a performance change has
to keep the bytes or update these hashes and declare the output change.
``manifest.json`` is left out: its config echo holds the run's output path.
"""

import hashlib
from pathlib import Path

import pytest

from debatesum.pipeline import load_config, run_pipeline

from conftest import SAMPLE_DIR

_SHARED = {
    "annotations.json": "4de456fbf0fe9b423a22ba99d642dc8566828957e2c90595f738def195ab6481",
    "salient.json": "d193701c85f86b9fdb222e5ee1b97edd3ac989e465931b8c09365301691afec4",
    "chart_t2.html": "82962502d26a78f05bf50d7879ba2704cfe6c482c44e009ed793e029534be831",
    "chart_t2.json": "a1ecbaafa6afeb147564ca9b994ed700368883119b7d5278cd8ba7f09869f301",
}

GOLDEN = {
    ("term", "mi"): {
        **_SHARED,
        "alignment.json": "802b553d24163b1af7b49e72f1c6df2a9771d770a5f0fd47d31b350088713412",
        "chart_t1.html": "e9d5c963d80e1d591d2bccbbb678d4a7b0075e28d39fe56a4c6bac649911aecd",
        "chart_t1.json": "b744afec3cbda78933cf8c09ff191902e7e7ecaa23623eb54407b683de8af3d0",
        "clusters.json": "5871a4c50c8e19aa5e2e41844c4fe10dd2ab776afe2b04e006206b42dc2801da",
        "evaluation.json": "16ba6f76c3c0c96324caa6c97fe167bc09d1f0aa4697ed38e94c2eb87c9ae541",
        "labels.json": "2d910ab43ad48442b7be8248c0bb0c907823764355b81e166d6fb2eea40437a6",
    },
    ("xmeans", "tfidf"): {
        **_SHARED,
        "alignment.json": "7e79477f6db2aa2d2ef0eda389aff59c17525da5c618b10c28e339788e14665d",
        "chart_t1.html": "d5386145aac89974bc34d6446f13cb3e340c2937fc96b9e001e4bf0c441e43ee",
        "chart_t1.json": "59983f420ad2cd8d6dcc28fa7c26acddbb50793a31a4936d460ccce78cbc4690",
        "clusters.json": "3263430d6e59eab32c457d7517601607a2db1fbdd4b97ec097860076802867fd",
        "evaluation.json": "35e705b45df37da88654addcc1e3b5baba272c688dfc19e79a592391c2ab51dc",
        "labels.json": "2ee837aa0c65c38430345fc14338122d9b3bdc0fec4e5045cda19d67a8587df3",
    },
}


@pytest.mark.parametrize("method, labeling", sorted(GOLDEN))
def test_sample_artifacts_match_pinned_hashes(tmp_path, method, labeling):
    config = load_config(
        SAMPLE_DIR / "config.json",
        {"clustering_method": method, "labeling_method": labeling, "output_dir": str(tmp_path)},
    )
    run_pipeline(config)
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.iterdir()
        if p.name != "manifest.json"
    }
    assert written == GOLDEN[(method, labeling)]
