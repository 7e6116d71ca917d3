"""Reference implementations and helpers that only tests call.

``kmeans`` seeds from numpy's own ``np.random.default_rng``, not from the
generator X-means uses, so the tests that compare X-means with it also
compare the two streams. ``numpy_silhouette`` is the euclidean silhouette
in numpy arrays and reductions, which ``evalkit.silhouette`` must equal bit
for bit in plain floats.
"""

import math
from pathlib import Path

import numpy as np

from debatesum.annotate import load_lexicon_terms
from debatesum.assets import asset_path, default_conjunctive_adverbs_path
from debatesum.corpus import Comment, Feature, salient_indices
from debatesum.errors import ComputationError
from debatesum.evalkit import SilhouetteReport
from debatesum.saliency import CommentScores, Lexicons
from debatesum.vector_clustering import (
    MAX_ITER,
    ClusteringResult,
    _bic,
    _kmeans_plusplus_init,
    _lloyd,
    _safe_bic,
)


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int = 0,
) -> ClusteringResult:
    """Seeded k-means++ initialization followed by Lloyd iterations.

    Deterministic given (points, k, seed). The per-iteration distortions in
    ``distortion_history`` never increase. Every row is its own point:
    identical rows may land in different clusters when k exceeds the number
    of distinct rows.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ComputationError("points must be a 2-d array")
    n = points.shape[0]
    if k < 1:
        raise ComputationError(f"k must be >= 1, got {k}")
    if k > n:
        raise ComputationError(f"k={k} exceeds point count n={n}")
    weights = np.ones(n)
    rng = np.random.default_rng(seed)
    centroids = _kmeans_plusplus_init(points, weights, k, rng)
    assignments, centroids, iterations, history = _lloyd(points, weights, centroids, MAX_ITER)
    return ClusteringResult(
        k=k,
        assignments=assignments,
        centroids=centroids,
        bic=_safe_bic(points, weights, assignments, centroids, k),
        iterations=iterations,
        distortion_history=tuple(history),
    )


def bic_score(points: np.ndarray, result: ClusteringResult) -> float:
    """BIC of the identical-spherical-variance Gaussian model of a clustering.

    BIC = L - (p/2) log n with p = k (d+1) free parameters and the variance
    MLE pooled over clusters. Larger is better. n == k leaves the variance
    undefined and zero variance is degenerate; both raise.
    """
    points = np.asarray(points, dtype=float)
    return _bic(points, np.ones(len(points)), result.assignments, result.centroids, result.k)


def default_gazetteer_path() -> Path:
    return asset_path("climate_terms.txt")


def default_synonyms_path() -> Path:
    return asset_path("synonyms.tsv")


def default_lexicons(embeddings: dict[str, np.ndarray] | None = None) -> Lexicons:
    """The packaged conjunctive adverbs and climate terms, as ``Lexicons``."""
    return Lexicons(
        conjunctive_adverbs=load_lexicon_terms(default_conjunctive_adverbs_path()),
        climate_terms=load_lexicon_terms(default_gazetteer_path()),
        embeddings=embeddings,
    )


def select_salient(
    comment: Comment,
    scores: CommentScores,
    feature: Feature = Feature.SP,
    ratio: float = 0.2,
) -> list[str]:
    """Ids of the top ceil(ratio * n) sentences by the chosen feature.

    Ties break toward the earlier sentence; the result is in the comment's
    sentence order (``salient_indices``).
    """
    sentences = comment.sentences
    return [sentences[i].id for i in salient_indices(scores.column(feature), ratio)]


def distance_matrix(points: np.ndarray, metric: str) -> np.ndarray:
    """All pairwise distances of ``points`` (one row per point) in numpy."""
    if metric == "euclidean":
        diff = points[:, None, :] - points[None, :, :]
        return np.sqrt(np.sum(diff**2, axis=2))
    norms = np.linalg.norm(points, axis=1)
    unit = points / norms[:, None]
    return 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)


def numpy_silhouette(points, assignments) -> SilhouetteReport:
    """The euclidean silhouette of ``points`` (rows, or one number per point)."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    labels, own = np.unique(np.asarray(assignments, dtype=int), return_inverse=True)
    distances = distance_matrix(points, "euclidean")
    # each cluster's columns copied to a C-contiguous block, so that a row's
    # sum adds in the order a 1-D sum of that row's members does
    sizes = np.bincount(own)
    sums = np.stack([
        np.ascontiguousarray(distances[:, own == j]).sum(axis=1) for j in range(len(labels))
    ])
    n = points.shape[0]
    everyone = np.arange(n)
    a = (sums[own, everyone] - distances[everyone, everyone]) / np.maximum(sizes[own] - 1, 1)
    means = sums / sizes[:, None]
    means[own, everyone] = np.inf
    b = means.min(axis=0)
    denom = np.maximum(a, b)
    per_point = np.divide(b - a, denom, out=np.zeros(n), where=(sizes[own] > 1) & (denom > 0))
    return SilhouetteReport(per_point=tuple(per_point.tolist()), mean=float(np.mean(per_point)))


def compensated_sum(values, start=0):
    """Builtin ``sum()`` of floats from Python 3.12 on: Neumaier's compensated
    summation, which rounds differently from adding left to right."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total
