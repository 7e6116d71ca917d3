from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest

from debatesum.cli import main
from debatesum.corpus import Comment, DebateTopic, Sentence, read_json, tokenize

REPO_ROOT = Path(__file__).resolve().parents[1]
SAMPLE_DIR = REPO_ROOT / "data" / "sample"


def src_env() -> dict:
    """The environment for a fresh interpreter that imports this checkout's package."""
    paths = [str(REPO_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


@pytest.fixture(scope="session")
def sample_dir() -> Path:
    return SAMPLE_DIR


@pytest.fixture(scope="session")
def sample_corpus_path() -> Path:
    return SAMPLE_DIR / "corpus.json"


@pytest.fixture(scope="session")
def sample_config_path() -> Path:
    return SAMPLE_DIR / "config.json"


def make_comment(cid: str, side: str, texts: list[str]) -> Comment:
    sentences = tuple(
        Sentence.make(f"{cid}-s{i + 1}", i + 1, text) for i, text in enumerate(texts)
    )
    return Comment(id=cid, side=side, sentences=sentences)


def make_topic(tid: str, title: str, comments: list[Comment]) -> DebateTopic:
    return DebateTopic(tid, title, tuple(comments), tuple(tokenize(title)))


def write_corpus_json(path: Path, topics: list[dict]) -> Path:
    path.write_text(json.dumps({"topics": topics}, indent=2) + "\n", encoding="utf-8")
    return path


def simple_topic_dict(
    tid: str = "t1",
    n_comments: int = 2,
    n_sentences: int = 3,
    side: str = "agree",
) -> dict:
    comments = []
    for c in range(n_comments):
        cid = f"{tid}-c{c + 1}"
        comments.append(
            {
                "id": cid,
                "side": side,
                "sentences": [
                    {"id": f"{cid}-s{s + 1}", "position": s + 1, "text": f"Sentence {s + 1}."}
                    for s in range(n_sentences)
                ],
            }
        )
    return {"id": tid, "title": f"Title of {tid}", "comments": comments}


def make_config(tmp_path: Path, **overrides) -> Path:
    """Copy the sample inputs next to a fresh config so relative paths resolve."""
    work = tmp_path / "inputs"
    work.mkdir(exist_ok=True)
    for name in ("corpus.json", "gold.json", "gazetteer.txt", "synonyms.tsv", "embeddings.txt"):
        shutil.copy(SAMPLE_DIR / name, work / name)
    config = {
        "corpus_path": "corpus.json",
        "gold_path": "gold.json",
        "gazetteer_path": "gazetteer.txt",
        "synonyms_path": "synonyms.tsv",
        "embeddings_path": "embeddings.txt",
        "feature": "SP",
        "clustering_method": "xmeans",
        "labeling_method": "mi",
        "seed": 42,
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    config = {k: v for k, v in config.items() if v is not None}
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def assert_staged_run_matches_pipeline(config_path: Path, tmp_path: Path, commands, run) -> None:
    """Run each stage command with ``run(argv) -> exit code`` into ``tmp_path/out``,
    then check that ``pipeline`` writes the same bytes."""
    for command in commands:
        assert run([*command, "--config", str(config_path)]) == 0, command
    staged_out = tmp_path / "out"
    full_out = tmp_path / "full"
    assert main(["pipeline", "--config", str(config_path), "--out", str(full_out)]) == 0
    charts = sorted(p.name for p in full_out.glob("chart_*"))
    assert charts
    assert sorted(p.name for p in staged_out.glob("chart_*")) == charts
    for name in (
        "annotations.json", "salient.json", "clusters.json", "labels.json",
        "alignment.json", *charts,
    ):
        assert (full_out / name).read_bytes() == (staged_out / name).read_bytes(), name
    staged_silhouette = read_json(staged_out / "evaluation_silhouette.json")["silhouette"]
    assert staged_silhouette == read_json(full_out / "evaluation.json")["silhouette"]
