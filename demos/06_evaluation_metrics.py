"""The evaluation kit: ROUGE per feature, silhouette, and label-study stats.

Builds the per-feature ROUGE table against the sample gold selections (the
same shape as a feature-comparison table), then demonstrates the statistics
used for label studies: Mann-Whitney U between two groups of Likert scores
and Krippendorff's alpha across raters.
"""

from pathlib import Path

import numpy as np

from debatesum.corpus import Feature
from debatesum.evalkit import krippendorff_alpha, mann_whitney_u, rouge, silhouette
from debatesum.pipeline import compute_rouge_table, load_config, load_inputs

SAMPLE = Path(__file__).resolve().parents[1] / "data" / "sample"


def main():
    inputs = load_inputs(load_config(SAMPLE / "config.json"), tuple(Feature))
    table = compute_rouge_table(inputs.corpus, inputs.gold, inputs.selections)
    print("mean ROUGE recall per selection feature (sample corpus, 3 annotators):")
    print(f"{'feature':<10} {'R-1':>7} {'R-2':>7} {'R-SU4':>7}")
    for feature, row in table.items():
        print(
            f"{feature:<10} {row['R1']['recall']:>7.4f} "
            f"{row['R2']['recall']:>7.4f} {row['RSU4']['recall']:>7.4f}"
        )

    # a single score with all three numbers
    score = rouge("the cat ran".split(), ["the cat sat".split()], "R1")
    print(f"\nR-1 of 'the cat ran' vs 'the cat sat': recall={score.recall:.3f} "
          f"precision={score.precision:.3f} f1={score.f1:.3f}")

    # silhouette on obvious structure vs interleaved noise
    rng = np.random.default_rng(0)
    tight = np.concatenate([rng.normal(0, 0.3, (30, 2)), rng.normal(8, 0.3, (30, 2))])
    noisy = rng.normal(0, 1.0, (60, 2))
    labels = [0] * 30 + [1] * 30
    print(f"\nsilhouette, two tight blobs:  {silhouette(tight, labels).mean:+.4f}")
    print(f"silhouette, interleaved noise: {silhouette(noisy, labels).mean:+.4f}")

    # label study statistics: system vs baseline Likert scores
    system_scores = [5, 5, 4, 5, 4, 5, 5, 4, 5, 5, 4, 5]
    baseline_scores = [3, 4, 2, 3, 3, 4, 2, 3, 4, 3, 2, 3]
    result = mann_whitney_u(system_scores, baseline_scores)
    print(
        f"\nMann-Whitney system vs baseline: U={min(result.u_a, result.u_b):.1f} "
        f"z={result.z:.2f} p={result.p_two_sided:.4f} r={result.effect_r:.2f}"
    )

    raters = [
        [5, 4, 2, 5, 3, 4, 5, 2],
        [5, 4, 3, 5, 3, 4, 4, 2],
        [4, 4, 2, 5, 3, 5, 5, 1],
    ]
    for metric in ("nominal", "ordinal", "interval"):
        print(f"Krippendorff alpha ({metric}): {krippendorff_alpha(raters, metric):.3f}")


if __name__ == "__main__":
    main()
