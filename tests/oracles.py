"""Reference implementations and helpers that only tests call.

``kmeans`` is k-means++ and Lloyd in numpy. It draws from the stream X-means
draws from, ``random.Random(seed).random()``, by X-means' rule, so the tests
that compare X-means with it compare two implementations of one sequence of
draws. ``numpy_silhouette`` is the euclidean silhouette in numpy arrays and
reductions, which ``evalkit.silhouette`` must match to a stated tolerance:
its sums are ``math.fsum``, and no longer numpy's to the bit.
``numpy_rouge_batch`` is the ROUGE table in numpy counts, which
``evalkit.rouge_batch`` must equal bit for bit.
"""

import math
import random
from pathlib import Path
from typing import Collection, Sequence

import numpy as np

from debatesum.annotate import load_lexicon_terms
from debatesum.assets import asset_path, default_conjunctive_adverbs_path
from debatesum.corpus import Comment, Feature, salient_indices
from debatesum.errors import ComputationError
from debatesum.evalkit import SilhouetteReport
from debatesum.saliency import CommentScores, Lexicons
from debatesum.vector_clustering import MAX_ITER, ClusteringResult


def _distortion(points, centroids, assignments) -> float:
    return float(((points - centroids[assignments]) ** 2).sum())


def _assign(points, centroids):
    distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return distances.argmin(axis=1)


def _centroids(points, assignments, k):
    sums = np.zeros((k, points.shape[1]))
    np.add.at(sums, assignments, points)
    return sums / np.bincount(assignments, minlength=k)[:, None]


def _reseed_empties(points, centroids, assignments, k) -> None:
    """Each empty cluster takes the point farthest from its own centroid among
    clusters that keep a point after giving one up."""
    counts = np.bincount(assignments, minlength=k)
    for j in np.flatnonzero(counts == 0):
        residuals = np.linalg.norm(points - centroids[assignments], axis=1)
        residuals[counts[assignments] < 2] = -1.0
        far = int(np.argmax(residuals))
        counts[assignments[far]] -= 1
        counts[j] = 1
        assignments[far] = j


def _lloyd(points, centroids, max_iter):
    """Lloyd passes to an assignment fixpoint, with the distortion after each
    pass; stops early when a pass returns what it started from."""
    k = centroids.shape[0]
    assignments = _assign(points, centroids)
    history: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        before = assignments.copy()
        _reseed_empties(points, centroids, assignments, k)
        new_centroids = _centroids(points, assignments, k)
        new_assignments = _assign(points, new_centroids)
        history.append(_distortion(points, new_centroids, new_assignments))
        done = np.array_equal(new_assignments, assignments) or (
            np.array_equal(new_assignments, before) and np.array_equal(new_centroids, centroids)
        )
        centroids, assignments = new_centroids, new_assignments
        if done:
            break
    if np.any(np.bincount(assignments, minlength=k) == 0):
        _reseed_empties(points, centroids, assignments, k)
        centroids = _centroids(points, assignments, k)
        history.append(_distortion(points, centroids, assignments))
    return assignments, centroids, iterations, history


def _draw(rng, mass) -> int:
    """One ``rng.random()`` as an index into ``mass``: uniform when all of it
    is equal, else searched on the normalized cumulative sum."""
    uniform = rng.random()
    if np.all(mass == mass[0]):
        return int(uniform * len(mass))
    cdf = np.cumsum(mass)
    return int(np.searchsorted(cdf / cdf[-1], uniform, side="right"))


def _kmeans_plusplus_init(points, k, rng):
    """k-means++ seeds: the first uniform, each next one with probability
    proportional to the squared distance to the nearest seed."""
    chosen = [_draw(rng, np.ones(points.shape[0]))]
    closest = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        chosen.append(_draw(rng, closest))
        closest = np.minimum(closest, ((points - points[chosen[-1]]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _bic(points, assignments, centroids, k) -> float:
    n, d = points.shape
    if n == k:
        raise ComputationError("BIC undefined for n == k (variance estimate has 0 dof)")
    sse = _distortion(points, centroids, assignments)
    variance = sse / (n - k)
    if variance <= 0.0:
        raise ComputationError("BIC degenerate: zero pooled variance")
    sizes = np.bincount(assignments, minlength=k)
    log_likelihood = (
        float(np.sum(sizes * np.log(sizes)))
        - n * math.log(n)
        - n * d / 2.0 * math.log(2.0 * math.pi * variance)
        - sse / (2.0 * variance)
    )
    return log_likelihood - (k * (d + 1) / 2.0) * math.log(n)


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int = 0,
) -> ClusteringResult:
    """Seeded k-means++ initialization followed by Lloyd iterations, in numpy:
    an implementation apart from X-means' plain floats.

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
    centroids = _kmeans_plusplus_init(points, k, random.Random(seed))
    assignments, centroids, iterations, history = _lloyd(points, centroids, MAX_ITER)
    try:
        bic = _bic(points, assignments, centroids, k)
    except ComputationError:
        bic = float("nan")
    return ClusteringResult(
        k=k,
        assignments=assignments,
        centroids=centroids,
        bic=bic,
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
    return _bic(
        points, np.asarray(result.assignments), np.asarray(result.centroids, dtype=float), result.k
    )


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
    """All pairwise distances of ``points`` (one row per point) in numpy.

    A cosine distance's norm adds every coordinate's square, and its dot
    product every coordinate's product, zeros included, in coordinate order
    from 0.0: one coordinate at a time, not ``np.linalg.norm`` or
    ``unit @ unit.T``, which add in another order."""
    if metric == "euclidean":
        diff = points[:, None, :] - points[None, :, :]
        return np.sqrt(np.sum(diff**2, axis=2))
    squares = np.zeros(len(points))
    for column in points.T:
        squares += column * column
    norms = np.sqrt(squares)
    unit = points / norms[:, None]
    dots = np.zeros((len(unit), len(unit)))
    for column in unit.T:
        dots += np.multiply.outer(column, column)
    return 1.0 - np.clip(dots, -1.0, 1.0)


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


def numpy_rouge_batch(sentences: Sequence, sequences: Sequence[Collection[str]], n_systems: int):
    """``evalkit.rouge_batch`` in numpy, as an array of shape (system,
    ``RougeVariant``, (recall, precision, f1)).

    Each token becomes an id; a unit's key is a token id (R1) or a token pair
    (a, b) as a * vocab_size + b (R2, and SU4, whose unigrams are R1's), plus
    t * vocab_size**2 for the kind t. Units are indexed through a table of
    all 3 * vocab_size**2 keys: to keep it small, the tokens of no reference
    share one id, as a unit holding one never matches. Counts are clipped
    with ``np.minimum`` and summed per kind with ``np.add.reduceat``.
    """
    referenced = set().union(*sequences[n_systems:])
    vocab = {t: i for i, t in enumerate(dict.fromkeys(
        t for s in sentences if s.id in referenced for t in s.tokens))}
    vocab_size = len(vocab) + 1  # the last id is every other token's
    tokens = np.array([vocab.get(t, len(vocab)) for s in sentences for t in s.tokens], dtype=np.int64)
    # sequence x sentence membership, spread to a sequence x token mask
    mask = np.repeat([[s.id in sequence for s in sentences] for sequence in sequences],
                     [len(s.tokens) for s in sentences], axis=1)
    rows, positions = np.nonzero(mask)
    ids, n_rows = tokens[positions], len(sequences)
    span = vocab_size * vocab_size
    pairs, pair_rows = [], []
    for gap in range(1, 6):
        same = rows[:-gap] == rows[gap:]  # both tokens in one sequence
        pairs.append(ids[:-gap][same] * vocab_size + ids[gap:][same])
        pair_rows.append(rows[:-gap][same])
    # row n_rows holds one key of each kind, so no kind's run of units is empty
    keys = np.concatenate([ids, pairs[0] + span, *(k + 2 * span for k in pairs), [0, span, 2 * span]])
    key_rows = np.concatenate([rows, pair_rows[0], *pair_rows, [n_rows] * 3])
    present = np.zeros(3 * span + 1, dtype=bool)  # + 1: span is 0 when there are no tokens
    present[keys] = True
    units = np.flatnonzero(present)
    unit_of = np.empty(len(present), dtype=np.intp)
    unit_of[units] = np.arange(len(units))
    counts = np.bincount(
        key_rows * len(units) + unit_of[keys], minlength=(n_rows + 1) * len(units)
    ).reshape(n_rows + 1, len(units))
    # units sort by kind: each kind's units are one run of columns
    starts = np.searchsorted(units, [0, span, 2 * span])
    totals = np.add.reduceat(counts[:n_rows], starts, axis=1)
    minima = np.minimum(counts[:n_systems, None], counts[None, n_systems:n_rows])
    match = np.add.reduceat(minima, starts, axis=-1)
    totals[:, 2] += totals[:, 0]  # SU4 counts the unigrams too
    match[..., 2] += match[..., 0]
    system_totals, ref_totals = totals[:n_systems, None], totals[None, n_systems:]
    scores = np.zeros((*match.shape, 3))  # system, reference, variant, (recall, precision, f1)
    recall, precision, f1 = scores[..., 0], scores[..., 1], scores[..., 2]
    np.divide(match, ref_totals, out=recall, where=ref_totals > 0)
    np.divide(match, system_totals, out=precision, where=system_totals > 0)
    np.divide(2 * precision * recall, precision + recall, out=f1, where=precision + recall != 0)
    total = scores[:, 0]
    for ref in range(1, n_rows - n_systems):  # added in order, as the references' mean adds
        total = total + scores[:, ref]
    return total / (n_rows - n_systems)
