"""Evaluation metrics: ROUGE-1/2/SU4, silhouette, Mann-Whitney U, Krippendorff's alpha.

ROUGE uses clipped n-gram counts per reference; the SU4 variant counts
skip-bigrams with up to four intervening words plus unigrams. Scores against
multiple references aggregate by mean (max available via ``aggregate``).
No stemming or stopword removal happens here: tokens are compared as given.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from ._numpy import np
from .errors import ComputationError


class RougeVariant(str, Enum):
    R1 = "R1"
    R2 = "R2"
    RSU4 = "RSU4"


@dataclass(frozen=True)
class RougeScore:
    variant: RougeVariant
    recall: float
    precision: float
    f1: float


@dataclass(frozen=True)
class SilhouetteReport:
    per_point: tuple[float, ...]
    mean: float


@dataclass(frozen=True)
class MannWhitneyResult:
    u_a: float
    u_b: float
    z: float
    p_two_sided: float
    effect_r: float


def ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def skip_bigram_counts(tokens: Sequence[str], max_skip: int = 4) -> Counter:
    """In-order token pairs with at most ``max_skip`` intervening words.

    max_skip = 0 reduces to ordinary bigrams.
    """
    counts: Counter = Counter()
    for gap in range(1, max_skip + 2):
        counts.update(zip(tokens, tokens[gap:]))
    return counts


def _su4_units(tokens: Sequence[str]) -> Counter:
    units = skip_bigram_counts(tokens, max_skip=4)
    units.update(ngram_counts(tokens, 1))  # unigram keys are 1-tuples, no collision
    return units


def _clipped_overlap(system: Counter, reference: Counter) -> int:
    return sum(min(system[gram], reference[gram]) for gram in system.keys() & reference.keys())


def _recall_precision_f1(match: int, total_sys: int, total_ref: int) -> tuple[float, float, float]:
    recall = match / total_ref if total_ref else 0.0
    precision = match / total_sys if total_sys else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return recall, precision, f1


def _mean_score(variant: RougeVariant, scores: Sequence[tuple[float, float, float]]) -> RougeScore:
    """The mean over references of (recall, precision, f1) triples."""
    recall, precision, f1 = (sum(column) / len(scores) for column in zip(*scores))
    return RougeScore(variant=variant, recall=recall, precision=precision, f1=f1)


def rouge_units(tokens: Sequence[str], variant: RougeVariant) -> Counter:
    """The units ROUGE counts for ``variant``: unigrams, bigrams, or SU4's
    skip-bigrams plus unigrams."""
    variant = RougeVariant(variant)
    if variant is RougeVariant.R1:
        return ngram_counts(tokens, 1)
    if variant is RougeVariant.R2:
        return ngram_counts(tokens, 2)
    return _su4_units(tokens)


def rouge_from_units(
    system: Counter,
    references: Sequence[Counter],
    variant: RougeVariant = RougeVariant.R1,
    aggregate: str = "mean",
) -> RougeScore:
    """ROUGE score from unit counts made by ``rouge_units``, so a text scored
    many times has its units counted once."""
    if not references:
        raise ComputationError("ROUGE needs at least one reference summary")
    if aggregate not in ("mean", "max"):
        raise ComputationError(f"unknown ROUGE aggregation {aggregate!r}")
    variant = RougeVariant(variant)
    total_sys = sum(system.values())
    scores = [
        _recall_precision_f1(_clipped_overlap(system, ref), total_sys, sum(ref.values()))
        for ref in references
    ]
    if aggregate == "max":
        return RougeScore(variant, *(max(s[i] for s in scores) for i in range(3)))
    return _mean_score(variant, scores)


def rouge(
    system: Sequence[str],
    references: Sequence[Sequence[str]],
    variant: RougeVariant = RougeVariant.R1,
    aggregate: str = "mean",
) -> RougeScore:
    """ROUGE score of a system token sequence against one or more references."""
    return rouge_from_units(
        rouge_units(system, variant),
        [rouge_units(ref, variant) for ref in references],
        variant,
        aggregate,
    )


def _unit_keys(ids: np.ndarray, rows: np.ndarray, vocab_size: int):
    """int64 keys of every variant's units and the sequence each comes from.

    A token pair (a, b) is a * vocab_size + b and an SU4 unigram
    vocab_size**2 + id, so one variant's keys lie below ``span``; variant t
    (in ``RougeVariant`` order) adds t * span. Returns ``(keys, rows, span)``.
    """
    span = vocab_size * (vocab_size + 1)
    pairs, pair_rows = [], []
    for gap in range(1, 6):
        same = rows[:-gap] == rows[gap:]  # both tokens in one sequence
        pairs.append(ids[:-gap][same] * vocab_size + ids[gap:][same])
        pair_rows.append(rows[:-gap][same])
    unigrams = ids + (2 * span + vocab_size * vocab_size)
    keys = [ids, pairs[0] + span, *(k + 2 * span for k in pairs), unigrams]
    return np.concatenate(keys), np.concatenate([rows, pair_rows[0], *pair_rows, rows]), span


def rouge_batch(
    ids: np.ndarray, rows: np.ndarray, n_rows: int, n_systems: int, vocab_size: int
) -> dict[RougeVariant, list[RougeScore]]:
    """Mean ROUGE of each of the first ``n_systems`` of ``n_rows`` token
    sequences against every later one, per variant: what ``rouge`` gives.

    ``ids`` (int64) holds the sequences' token ids, each below ``vocab_size``,
    one sequence after another; ``rows`` (int64) the sequence of each.
    """
    keys, key_rows, span = _unit_keys(ids, rows, vocab_size)
    units, inverse = np.unique(keys, return_inverse=True)
    counts = np.bincount(
        key_rows * len(units) + inverse, minlength=n_rows * len(units)
    ).reshape(n_rows, len(units))
    minima = np.minimum(counts[:n_systems, None], counts[None, n_systems:])
    # units sort by variant: each variant's units are one run of columns
    bounds = np.searchsorted(units, [0, span, 2 * span, 3 * span]).tolist()
    out = {}
    for variant, lo, hi in zip(RougeVariant, bounds, bounds[1:]):
        match = minima[..., lo:hi].sum(-1).tolist()
        totals = counts[:, lo:hi].sum(1).tolist()
        ref_totals = totals[n_systems:]
        out[variant] = [
            _mean_score(variant, [
                _recall_precision_f1(m, total_sys, total_ref)
                for m, total_ref in zip(matches, ref_totals)
            ])
            for matches, total_sys in zip(match, totals)
        ]
    return out


def _distance_matrix(points: np.ndarray, metric: str) -> np.ndarray:
    if metric == "euclidean":
        diff = points[:, None, :] - points[None, :, :]
        return np.sqrt(np.sum(diff**2, axis=2))
    if metric == "cosine_distance":
        norms = np.linalg.norm(points, axis=1)
        if np.any(norms == 0.0):
            raise ComputationError("cosine distance undefined for zero vectors")
        unit = points / norms[:, None]
        return 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)
    raise ComputationError(f"unknown silhouette metric {metric!r}")


def silhouette(
    points: np.ndarray,
    assignments: Sequence[int],
    metric: str = "euclidean",
) -> SilhouetteReport:
    """Per-point (b - a) / max(a, b) and its mean.

    a is the mean distance to the point's own cluster (self excluded), b the
    smallest mean distance to any other cluster. Points in singleton clusters
    score 0 by convention. At least two nonempty clusters are required.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    assignments = np.asarray(assignments, dtype=int)
    labels = np.unique(assignments)
    if len(labels) < 2:
        raise ComputationError("silhouette undefined for k = 1")
    distances = _distance_matrix(points, metric)

    # Each cluster's columns are copied to a C-contiguous block: its row sums
    # then add in the order a 1-D sum of one row's members does, where the
    # strided block that the mask gives can round differently.
    own = np.searchsorted(labels, assignments)
    sizes = np.bincount(own)
    sums = np.stack([
        np.ascontiguousarray(distances[:, assignments == label]).sum(axis=1) for label in labels
    ])
    n = points.shape[0]
    everyone = np.arange(n)
    a = (sums[own, everyone] - distances[everyone, everyone]) / np.maximum(sizes[own] - 1, 1)
    means = sums / sizes[:, None]
    means[own, everyone] = np.inf  # b is the nearest other cluster
    b = means.min(axis=0)
    denom = np.maximum(a, b)
    per_point = np.divide(b - a, denom, out=np.zeros(n), where=(sizes[own] > 1) & (denom > 0))
    return SilhouetteReport(per_point=tuple(per_point.tolist()), mean=float(np.mean(per_point)))


def mann_whitney_u(sample_a: Sequence[float], sample_b: Sequence[float]) -> MannWhitneyResult:
    """Rank-sum U statistics with midrank ties and the normal approximation.

    The z statistic uses the tie-corrected variance; two samples with no
    variation at all give z = 0, p = 1. Effect size r = |z| / sqrt(n_a + n_b).
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ComputationError("Mann-Whitney needs two nonempty samples")
    n_a, n_b = a.size, b.size
    n = n_a + n_b
    combined = np.concatenate([a, b])

    order = np.argsort(combined, kind="stable")
    ranks = np.empty(n, dtype=float)
    sorted_values = combined[order]
    i = 0
    tie_correction = 0.0
    while i < n:
        j = i
        while j + 1 < n and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        ranks[order[i : j + 1]] = midrank
        t = j - i + 1
        tie_correction += t**3 - t
        i = j + 1

    rank_sum_a = float(ranks[:n_a].sum())
    u_a = rank_sum_a - n_a * (n_a + 1) / 2.0
    u_b = n_a * n_b - u_a

    mean_u = n_a * n_b / 2.0
    variance = n_a * n_b / 12.0 * ((n + 1) - tie_correction / (n * (n - 1)))
    if variance <= 0.0:
        z = 0.0
        p = 1.0
    else:
        z = (u_a - mean_u) / math.sqrt(variance)
        p = math.erfc(abs(z) / math.sqrt(2.0))
    return MannWhitneyResult(
        u_a=u_a, u_b=u_b, z=z, p_two_sided=min(p, 1.0), effect_r=abs(z) / math.sqrt(n)
    )


def _difference_squared(values: list[float], counts: dict[float, float], metric: str) -> dict:
    """delta^2 lookup for every ordered value pair under the chosen metric."""
    table: dict[tuple[float, float], float] = {}
    for x in values:
        for y in values:
            if metric == "nominal":
                d2 = 0.0 if x == y else 1.0
            elif metric == "interval":
                d2 = (x - y) ** 2
            elif metric == "ordinal":
                lo, hi = min(x, y), max(x, y)
                between = sum(counts[g] for g in values if lo <= g <= hi)
                d2 = (between - (counts[x] + counts[y]) / 2.0) ** 2 if x != y else 0.0
            else:
                raise ComputationError(f"unknown alpha metric {metric!r}")
            table[(x, y)] = d2
    return table


def krippendorff_alpha(
    ratings: Sequence[Sequence[float | None]],
    metric: str = "nominal",
) -> float:
    """alpha = 1 - D_observed / D_expected over the coincidence matrix.

    ``ratings`` is coder-by-item with None marking a missing rating. Items
    rated by fewer than two coders are excluded; if none remain that is an
    error. Unanimous ratings give alpha = 1 for every metric.
    """
    if len(ratings) < 2:
        raise ComputationError("Krippendorff's alpha needs at least 2 coders")
    n_items = max((len(r) for r in ratings), default=0)

    pairable: list[list[float]] = []
    for item in range(n_items):
        values = [
            coder[item]
            for coder in ratings
            if item < len(coder) and coder[item] is not None
        ]
        if len(values) >= 2:
            pairable.append([float(v) for v in values])
    if not pairable:
        raise ComputationError("no item carries two or more ratings")

    coincidence: dict[tuple[float, float], float] = {}
    value_counts: dict[float, float] = {}
    for values in pairable:
        m = len(values)
        for i, v in enumerate(values):
            for j, w in enumerate(values):
                if i == j:
                    continue
                coincidence[(v, w)] = coincidence.get((v, w), 0.0) + 1.0 / (m - 1)
    for (v, _), count in coincidence.items():
        value_counts[v] = value_counts.get(v, 0.0) + count
    total = sum(value_counts.values())

    domain = sorted(value_counts)
    d2 = _difference_squared(domain, value_counts, metric)

    observed = sum(count * d2[pair] for pair, count in coincidence.items()) / total
    expected = sum(
        value_counts[v] * value_counts[w] * d2[(v, w)] for v in domain for w in domain
    ) / (total * (total - 1))
    if expected == 0.0:
        return 1.0  # zero expected disagreement: unanimous ratings
    return 1.0 - observed / expected
