"""The benchmark's workloads: corpus make-up, config and CLI commands.

One operation runs every command of a workload, each in a fresh
``python3 -m debatesum.cli`` process, one process at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from synth import Shape


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: Shape
    clustering: str
    labeling: str
    commands: tuple  # CLI argument lists, each followed by --config <path>

    def config(self, out: Path) -> dict:
        # The program's own seed stays fixed; --seed varies only the corpus.
        # No "jobs" key: the thread pool it selects is slated for removal.
        return {
            "feature": "SP",
            "clustering_method": self.clustering,
            "labeling_method": self.labeling,
            "alignment_threshold": 0.6,
            "variance_target": 0.95,
            "k_min": 2,
            "k_max": 25,
            "seed": 0,
            "output_dir": str(out.resolve()),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="xmeans-dup",
            why="few term combinations, so salient sentences share term vectors; "
                "X-means dominates and its duplicate-point fault shows",
            shape=Shape(regime="dup", comments=(24,) * 3, sentences=(6, 10)),
            clustering="xmeans",
            labeling="mi",
            commands=(("pipeline",),),
        ),
        Workload(
            name="term-gold",
            why="many topics with diverse terms plus gold and embeddings; topic "
                "signatures, MI labels and the ROUGE table dominate, X-means never runs",
            shape=Shape(regime="diverse", comments=(20,) * 10, sentences=(6, 14), gold=True),
            clustering="term",
            labeling="mi",
            commands=(("pipeline",),),
        ),
        Workload(
            name="xmeans-staged",
            why="diverse terms run stage by stage through seven CLI commands; artifact "
                "reads, repeated corpus loads, X-means on distinct points, tf*idf labels",
            shape=Shape(regime="diverse", comments=(20,) * 10, sentences=(6, 14)),
            clustering="xmeans",
            labeling="tfidf",
            commands=(
                ("annotate",),
                ("select",),
                ("cluster", "--method", "xmeans"),
                ("label", "--method", "tfidf"),
                ("align",),
                ("chart",),
                ("eval", "silhouette"),
            ),
        ),
    )
}
