"""Self-test of the output checks: each corrupted artifact must be rejected.

    python3 bench/selftest.py

Runs every workload once on its seed-1 corpus, records the verdict of
``checks.check_all`` on the untouched artifacts, then applies one corruption
per check to a copy of them. A corruption passes the self-test when the
checks report a new failure from the check it targets, which shows that no
check is vacuous. Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import synth  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def edit(name: str, change):
    """A corruption that loads one JSON artifact, changes it and writes it back."""
    def apply(out: Path) -> None:
        doc = json.loads((out / name).read_text(encoding="utf-8"))
        change(doc)
        (out / name).write_text(json.dumps(doc), encoding="utf-8")
    return apply


def _clusters(doc: dict, size: int = 1) -> list:
    """Clusters of the first side holding two clusters with >= size members."""
    for topic in doc["topics"]:
        for side in topic["sides"].values():
            big = [c for c in side["clusters"] if len(c["members"]) >= size]
            if len(big) >= 2:
                return big
    raise LookupError("no side with two clusters")


def move_member(doc: dict) -> None:
    a, b = _clusters(doc, size=2)[:2]
    b["members"].append(a["members"].pop())


def copy_member(doc: dict) -> None:
    a, b = _clusters(doc)[:2]
    b["members"].append(a["members"][0])


def nan_point(doc: dict) -> None:
    a = _clusters(doc)[0]
    for topic in doc["topics"]:
        for side in topic["sides"].values():
            if a in side["clusters"]:
                side["points"][a["members"][0]][0] = float("nan")


def recanonicalise(doc: dict) -> None:
    for topic in doc["topics"]:
        for sentence in topic["sentences"]:
            for a in sentence["annotations"]:
                a["canonical"] = "ozone" if a["canonical"] != "ozone" else "albedo"
                return


def drop_salient(doc: dict) -> None:
    doc["topics"][0]["comments"][0]["sentence_ids"].pop()


def perturb_label_score(doc: dict) -> None:
    entry = next(e for e in doc["clusters"] if e["label"] != checks.UNLABELED)
    entry["score"] += 1e-6


def swap_label(doc: dict) -> None:
    entry = next(e for e in doc["clusters"] if e["runner_up"])
    entry["label"], entry["score"] = entry["runner_up"]


def perturb_similarity(doc: dict) -> None:
    topic = next(t for t in doc["topics"] if t["pairs"])
    topic["pairs"][0]["similarity"] -= 1e-6


def perturb_silhouette(doc: dict) -> None:
    doc["silhouette"]["per_clustering"][0]["mean_silhouette"] += 1e-6


def perturb_rouge(doc: dict) -> None:
    doc["rouge"]["SP"]["R1"]["recall"] += 1e-6


def bump_bar(out: Path) -> None:
    for path in sorted(out.glob("chart_*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc["bars"]:
            doc["bars"][0]["agree_count"] += 1
            path.write_text(json.dumps(doc), encoding="utf-8")
            return
    raise LookupError("no chart with a bar")


def forge_manifest(doc: dict) -> None:
    name = sorted(doc["artifacts"])[0]
    doc["artifacts"][name] = "sha256:" + "0" * 64


# (workload, corruption, apply, prefix of the failure it must cause)
CORRUPTIONS = [
    ("term-gold", "annotation canonical form", edit("annotations.json", recanonicalise), "annotations"),
    ("term-gold", "salient id dropped", edit("salient.json", drop_salient), "selection"),
    ("term-gold", "member moved between term clusters", edit("clusters.json", move_member), "term clusters"),
    ("term-gold", "MI score perturbed", edit("labels.json", perturb_label_score), "labels"),
    ("term-gold", "alignment similarity perturbed", edit("alignment.json", perturb_similarity), "alignment"),
    ("term-gold", "bar count changed", bump_bar, "chart"),
    ("term-gold", "silhouette mean perturbed", edit("evaluation.json", perturb_silhouette), "silhouette"),
    ("term-gold", "ROUGE SP row perturbed", edit("evaluation.json", perturb_rouge), "rouge"),
    ("term-gold", "manifest hash forged", edit("manifest.json", forge_manifest), "manifest"),
    ("xmeans-dup", "MI label swapped for its runner-up", edit("labels.json", swap_label), "labels"),
    ("xmeans-dup", "member copied into a second cluster", edit("clusters.json", copy_member), "xmeans clusters"),
    ("xmeans-staged", "member moved between X-means clusters", edit("clusters.json", move_member),
     "silhouette"),
    ("xmeans-staged", "reduced point set to NaN", edit("clusters.json", nan_point), "xmeans clusters"),
    ("xmeans-staged", "tf*idf score perturbed", edit("labels.json", perturb_label_score), "labels"),
    ("xmeans-staged", "silhouette mean perturbed",
     edit("evaluation_silhouette.json", perturb_silhouette), "silhouette"),
]


def run_workload(workload, work: Path) -> tuple:
    corpus = synth.generate(workload.shape, 1)
    config = synth.write(corpus, work / "input", workload.config(work / "out"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command in workload.commands:
        done = subprocess.run(
            [sys.executable, "-m", "debatesum.cli", *command, "--config", str(config)],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"{' '.join(command)} exited with {done.returncode}")
    return work / "out", checks.Truth(corpus)


def main() -> int:
    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    missed = 0
    try:
        for name in sorted({c[0] for c in CORRUPTIONS}):
            workload = WORKLOADS[name]
            out, truth = run_workload(workload, work / name)
            baseline = set(checks.check_all(out, truth, workload))
            print(f"{name}: untouched artifacts -> {sorted(baseline) or 'pass'}")
            for wl, label, apply, prefix in CORRUPTIONS:
                if wl != name:
                    continue
                copy = work / name / "corrupt"
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(out, copy)
                apply(copy)
                new = [f for f in checks.check_all(copy, truth, workload) if f not in baseline]
                caught = any(f.startswith(prefix) for f in new)
                missed += not caught
                print(f"  {'rejected' if caught else 'MISSED  '} {label}: {new[:2]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("self-test", "passed" if not missed else f"failed: {missed} corruption(s) missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
