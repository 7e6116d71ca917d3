"""The benchmark's tracer (``bench/tracing.py``), run as it stands on the
sample config, still traces a command: every name it wraps is found, spans
are recorded, and a stage command's artifact reads are counted at the CLI's
call site."""

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
