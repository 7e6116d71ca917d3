"""The benchmark's tracer (``bench/tracing.py``), run as it stands on the
sample config, still traces a command: every name it wraps is found, spans
are recorded, and a stage command's artifact reads are counted at the CLI's
call site. The counts it takes from the clustering and alignment results
equal the counts in the artifacts the run writes."""

import json
import subprocess
import sys

from conftest import REPO_ROOT, SAMPLE_DIR, src_env


def traced_run(spans_path, *argv: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "bench" / "tracing.py"), str(spans_path), *argv],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, (argv, done.stderr)
    return json.loads(spans_path.read_text(encoding="utf-8"))


def test_tracer_runs_pipeline_and_label(tmp_path):
    flags = ["--config", str(SAMPLE_DIR / "config.json"), "--out", str(tmp_path / "out")]
    pipeline = traced_run(tmp_path / "pipeline_spans.json", "pipeline", *flags)
    label = traced_run(tmp_path / "label_spans.json", "label", *flags)
    assert pipeline["spans"] and label["spans"]
    assert label["counts"]["cli:read_json"] == 2  # clusters.json and annotations.json


def test_tracer_counts_equal_the_written_artifacts(tmp_path):
    raw = json.loads((SAMPLE_DIR / "config.json").read_text(encoding="utf-8"))
    for key in ("corpus_path", "gold_path", "gazetteer_path", "synonyms_path", "embeddings_path"):
        raw[key] = str(SAMPLE_DIR / raw[key])
    for method in ("term", "xmeans"):
        out = tmp_path / method
        config = tmp_path / f"{method}.json"
        config.write_text(json.dumps({**raw, "clustering_method": method}), encoding="utf-8")
        counts = traced_run(tmp_path / f"{method}_spans.json", "pipeline", "--config", str(config),
                            "--out", str(out))["counts"]
        clusters = json.loads((out / "clusters.json").read_text(encoding="utf-8"))
        alignment = json.loads((out / "alignment.json").read_text(encoding="utf-8"))
        sides = [side for topic in clusters["topics"] for side in topic["sides"].values()]
        if method == "term":
            assert counts["term_clusters"] == sum(len(side["clusters"]) for side in sides)
            # term clusters carry their own label, so none is dropped as unlabeled
            assert counts["pairs"] == sum(len(topic["pairs"]) for topic in alignment["topics"])
            assert counts["dropped"] == sum(len(topic["dropped"]) for topic in alignment["topics"])
        else:
            assert counts["final_k"] == sum(side["k"] for side in sides)
