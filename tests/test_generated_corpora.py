"""Generated corpora, end to end: ``pipeline`` exits 0 with no RuntimeWarning,
the stage commands run one by one write the same bytes, and an x-means
``pipeline`` writes the same bytes under two OpenBLAS kernels.

The corpora hold the inputs that real debates bring and that the sample does
not: one-sentence sides, comments with no ontology term, identical
sentences, empty text and non-ASCII text.
"""

import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SAMPLE_DIR, assert_staged_run_matches_pipeline, forced_kernels, run_pipeline_under_kernel,
)

from debatesum.cli import main
from debatesum.corpus import Feature, read_json, salient_count

WORDS = (
    "carbon", "dioxide", "climate", "change", "sea", "level", "ice", "tax", "fossil", "fuel",
    "the", "however", "café", "naïve", "émission", "気候", "海面", "Ωmega",
)
# whole sentences, drawn again and again so that comments repeat them
SENTENCES = (
    "Carbon dioxide warms the climate.",
    "Sea level rise follows sea ice loss.",
    "The cat sat on the mat.",  # no ontology term
    "...",  # no token
    "",
    "Le réchauffement du climat — café naïve.",
    "気候変動と海面上昇。",
)
TEXTS = st.one_of(
    st.sampled_from(SENTENCES),
    st.lists(st.sampled_from(WORDS), max_size=6).map(lambda words: " ".join(words) + "."),
)


@st.composite
def corpora(draw):
    """A corpus document, one to three topics of one to three comments of
    one to four sentences, so a side often has one comment of one sentence."""
    topics = []
    for t in range(1, draw(st.integers(1, 3)) + 1):
        comments = []
        for c in range(1, draw(st.integers(1, 3)) + 1):
            cid = f"t{t}-c{c}"
            texts = draw(st.lists(TEXTS, min_size=1, max_size=4))
            comments.append({
                "id": cid,
                "side": draw(st.sampled_from(["agree", "disagree"])),
                "sentences": [
                    {"id": f"{cid}-s{i}", "position": i, "text": text}
                    for i, text in enumerate(texts, start=1)
                ],
            })
        topics.append({"id": f"t{t}", "title": draw(TEXTS), "comments": comments})
    return {"topics": topics}


CONFIGS = st.fixed_dictionaries({
    "feature": st.sampled_from([f.value for f in Feature]),
    "ratio": st.sampled_from([0.2, 0.5, 1.0]),
    "signature_threshold": st.sampled_from([1.0, 10.83]),
    "methods": st.sampled_from([
        ("term", "shared"), ("term", "tfidf"), ("term", "mi"), ("xmeans", "tfidf"), ("xmeans", "mi"),
    ]),
    "gold": st.booleans(),
    "embeddings": st.booleans(),
    "seed": st.integers(0, 3),
})


def write_inputs(work: Path, corpus: dict, options: dict) -> Path:
    """The corpus, its gold file if ``options["gold"]`` (each comment's
    first sentences, as many as a selection keeps), and a config naming them."""
    (work / "corpus.json").write_text(json.dumps(corpus), encoding="utf-8")
    clustering, labeling = options["methods"]
    config = {
        "corpus_path": "corpus.json",
        "gazetteer_path": str(SAMPLE_DIR / "gazetteer.txt"),
        "synonyms_path": str(SAMPLE_DIR / "synonyms.tsv"),
        "feature": options["feature"],
        "ratio": options["ratio"],
        "signature_threshold": options["signature_threshold"],
        "clustering_method": clustering,
        "labeling_method": labeling,
        "seed": options["seed"],
        "output_dir": str(work / "out"),
    }
    if options["embeddings"]:
        config["embeddings_path"] = str(SAMPLE_DIR / "embeddings.txt")
    if options["gold"]:
        annotations = [
            {"annotator_id": "a1", "comment_id": comment["id"], "selected": [
                s["id"] for s in comment["sentences"][: salient_count(len(comment["sentences"]))]
            ]}
            for topic in corpus["topics"] for comment in topic["comments"]
        ]
        (work / "gold.json").write_text(json.dumps({"annotations": annotations}), encoding="utf-8")
        config["gold_path"] = "gold.json"
    path = work / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@settings(max_examples=30, deadline=None, database=None)
@given(corpus=corpora(), options=CONFIGS)
def test_generated_corpus_runs_and_staged_commands_write_the_pipelines_bytes(corpus, options):
    commands = [
        ["annotate"], ["select"], ["cluster"], ["label"], ["align"], ["chart"],
        ["eval", "silhouette"], *([["eval", "rouge"]] if options["gold"] else []),
    ]
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        work = Path(tmp)
        config_path = write_inputs(work, corpus, options)
        assert_staged_run_matches_pipeline(config_path, work, commands, main)
        if options["gold"]:
            staged = read_json(work / "out" / "evaluation_rouge.json")["rouge"]
            assert staged == read_json(work / "full" / "evaluation.json")["rouge"]


@pytest.mark.skipif(not forced_kernels(), reason="no OpenBLAS kernel to force on this CPU")
@settings(max_examples=4, deadline=None, database=None)
@given(corpus=corpora(), options=CONFIGS.filter(lambda options: options["methods"][0] == "xmeans"))
def test_generated_x_means_bytes_do_not_depend_on_the_blas_kernel(corpus, options):
    """The kernel OpenBLAS picks and the first one forced (see
    ``test_golden_artifacts``) write the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        config_path = write_inputs(work, corpus, options)
        written = [
            run_pipeline_under_kernel(config_path, work / f"out-{kernel}", kernel)[0]
            for kernel in (None, forced_kernels()[0])
        ]
    assert written[0] == written[1]
