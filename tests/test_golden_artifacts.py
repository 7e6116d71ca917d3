"""Pinned sha256 of every artifact the pipeline writes for the sample data.

A change that alters any output byte fails here, so a performance change has
to keep the bytes or update these hashes and declare the output change.
``manifest.json`` is left out: its config echo holds the run's output path.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from debatesum.pipeline import load_config, run_pipeline

from conftest import SAMPLE_DIR, forced_kernels, make_config, run_pipeline_under_kernel, src_env

_SHARED = {
    "annotations.json": "4de456fbf0fe9b423a22ba99d642dc8566828957e2c90595f738def195ab6481",
    "salient.json": "d193701c85f86b9fdb222e5ee1b97edd3ac989e465931b8c09365301691afec4",
    "chart_t2.html": "82962502d26a78f05bf50d7879ba2704cfe6c482c44e009ed793e029534be831",
    "chart_t2.json": "a1ecbaafa6afeb147564ca9b994ed700368883119b7d5278cd8ba7f09869f301",
}

GOLDEN = {
    ("term", "shared"): {
        **_SHARED,
        "alignment.json": "802b553d24163b1af7b49e72f1c6df2a9771d770a5f0fd47d31b350088713412",
        "chart_t1.html": "e9d5c963d80e1d591d2bccbbb678d4a7b0075e28d39fe56a4c6bac649911aecd",
        "chart_t1.json": "b744afec3cbda78933cf8c09ff191902e7e7ecaa23623eb54407b683de8af3d0",
        "clusters.json": "5871a4c50c8e19aa5e2e41844c4fe10dd2ab776afe2b04e006206b42dc2801da",
        "evaluation.json": "16ba6f76c3c0c96324caa6c97fe167bc09d1f0aa4697ed38e94c2eb87c9ae541",
        "labels.json": "b565a4af4c81d0c0d43de8eee14e24622f3c23744ba4ed9499a91007462876f2",
    },
    ("term", "mi"): {
        **_SHARED,
        "alignment.json": "802b553d24163b1af7b49e72f1c6df2a9771d770a5f0fd47d31b350088713412",
        "chart_t1.html": "e9d5c963d80e1d591d2bccbbb678d4a7b0075e28d39fe56a4c6bac649911aecd",
        "chart_t1.json": "b744afec3cbda78933cf8c09ff191902e7e7ecaa23623eb54407b683de8af3d0",
        "clusters.json": "5871a4c50c8e19aa5e2e41844c4fe10dd2ab776afe2b04e006206b42dc2801da",
        "evaluation.json": "16ba6f76c3c0c96324caa6c97fe167bc09d1f0aa4697ed38e94c2eb87c9ae541",
        "labels.json": "2d910ab43ad48442b7be8248c0bb0c907823764355b81e166d6fb2eea40437a6",
    },
    ("xmeans", "mi"): {
        **_SHARED,
        "alignment.json": "7e79477f6db2aa2d2ef0eda389aff59c17525da5c618b10c28e339788e14665d",
        "chart_t1.html": "d5386145aac89974bc34d6446f13cb3e340c2937fc96b9e001e4bf0c441e43ee",
        "chart_t1.json": "59983f420ad2cd8d6dcc28fa7c26acddbb50793a31a4936d460ccce78cbc4690",
        "clusters.json": "06f84f380b8ca01757f8608e29af2418251ecf670f84e5f10c76a4d36b8294bf",
        "evaluation.json": "101397de833cf2cb8576920a0b49a4f54ac2dec4a33abdbecfba4663060f6fd0",
        "labels.json": "9da0e41b74a8a3a65013cb8aff1be45626c1ee0dd52144c2e70db1ca1db6a8a9",
    },
    ("xmeans", "tfidf"): {
        **_SHARED,
        "alignment.json": "7e79477f6db2aa2d2ef0eda389aff59c17525da5c618b10c28e339788e14665d",
        "chart_t1.html": "d5386145aac89974bc34d6446f13cb3e340c2937fc96b9e001e4bf0c441e43ee",
        "chart_t1.json": "59983f420ad2cd8d6dcc28fa7c26acddbb50793a31a4936d460ccce78cbc4690",
        "clusters.json": "06f84f380b8ca01757f8608e29af2418251ecf670f84e5f10c76a4d36b8294bf",
        "evaluation.json": "101397de833cf2cb8576920a0b49a4f54ac2dec4a33abdbecfba4663060f6fd0",
        "labels.json": "2ee837aa0c65c38430345fc14338122d9b3bdc0fec4e5045cda19d67a8587df3",
    },
}

# The sample config without ``embeddings_path``: COS_STT is unavailable, so CB
# is the mean of seven features; the ROUGE table in evaluation.json pins it.
GOLDEN_WITHOUT_EMBEDDINGS = {
    **_SHARED,
    "alignment.json": "7e79477f6db2aa2d2ef0eda389aff59c17525da5c618b10c28e339788e14665d",
    "chart_t1.html": "d5386145aac89974bc34d6446f13cb3e340c2937fc96b9e001e4bf0c441e43ee",
    "chart_t1.json": "59983f420ad2cd8d6dcc28fa7c26acddbb50793a31a4936d460ccce78cbc4690",
    "clusters.json": "06f84f380b8ca01757f8608e29af2418251ecf670f84e5f10c76a4d36b8294bf",
    "evaluation.json": "dec62084f6afe5c492491ed406fd86ad92aaf50f1b2bc30baf5adc7e8a970590",
    "labels.json": "9da0e41b74a8a3a65013cb8aff1be45626c1ee0dd52144c2e70db1ca1db6a8a9",
}


def _hashes(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out_dir.iterdir()
        if p.name != "manifest.json"
    }


@pytest.mark.parametrize("method, labeling", sorted(GOLDEN))
def test_sample_artifacts_match_pinned_hashes(tmp_path, method, labeling):
    config = load_config(
        SAMPLE_DIR / "config.json",
        {"clustering_method": method, "labeling_method": labeling, "output_dir": str(tmp_path)},
    )
    run_pipeline(config)
    assert _hashes(tmp_path) == GOLDEN[(method, labeling)]


def test_sample_artifacts_without_embeddings_match_pinned_hashes(tmp_path):
    raw = json.loads((SAMPLE_DIR / "config.json").read_text(encoding="utf-8"))
    del raw["embeddings_path"]
    for key in ("corpus_path", "gold_path", "gazetteer_path", "synonyms_path"):
        raw[key] = str(SAMPLE_DIR / raw[key])
    raw["output_dir"] = str(tmp_path / "out")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw), encoding="utf-8")
    run_pipeline(load_config(config_path))
    assert _hashes(tmp_path / "out") == GOLDEN_WITHOUT_EMBEDDINGS


@pytest.mark.parametrize("method, labeling", [("term", "mi"), ("xmeans", "tfidf")])
def test_sample_artifacts_do_not_depend_on_the_hash_seed(tmp_path, method, labeling):
    """Terms and sides are strings, and set iteration order follows string
    hashes: no artifact may follow it."""
    config_path = make_config(tmp_path, clustering_method=method, labeling_method=labeling)
    written = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / f"out-{hash_seed}"
        subprocess.run(
            [sys.executable, "-m", "debatesum.cli", "pipeline", "--config", str(config_path),
             "--out", str(out)],
            env={**src_env(), "PYTHONHASHSEED": hash_seed}, capture_output=True, timeout=120,
            check=True,
        )
        written.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
    assert "clusters.json" in written[0]
    assert written[0] == written[1]


@pytest.mark.parametrize("labeling", ["mi", "tfidf"])
def test_x_means_artifacts_do_not_depend_on_the_blas_kernel(tmp_path, labeling):
    """The same bytes under each OpenBLAS kernel the CPU runs, forced with
    ``OPENBLAS_CORETYPE``, because no run loads OpenBLAS at all:
    ``OPENBLAS_VERBOSE=2`` makes OpenBLAS name the core it runs as it loads
    (on builds with ``DYNAMIC_ARCH``, such as numpy's wheels on x86-64), and
    no run names one."""
    config_path = make_config(tmp_path, labeling_method=labeling)
    runs = {
        kernel: run_pipeline_under_kernel(config_path, tmp_path / f"out-{kernel}", kernel)
        for kernel in (None, *forced_kernels())
    }
    assert {kernel: core for kernel, (_, core) in runs.items()} == dict.fromkeys(runs)
    written = [files for files, _ in runs.values()]
    assert "clusters.json" in written[0]
    assert all(files == written[0] for files in written[1:])
