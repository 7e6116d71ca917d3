"""Ontology-term vector space, cosine similarity, PCA, and X-means clustering.

The clustering feature space follows the pipeline order: sentences become
term-count vectors, the pairwise cosine similarity matrix is built, and PCA
reduces the similarity rows (each sentence represented by its similarity
profile). X-means then grows k from k_min by splitting any cluster whose
two-way split improves the local Bayesian Information Criterion, up to k_max.

X-means clusters the distinct rows of its input, each weighted by how many
rows share it (weighted k-means++ seeding, weighted Lloyd, and a BIC whose n
is the total weight), so identical rows always share a cluster. Its BIC
floors the pooled variance at VARIANCE_FLOOR times the variance of the whole
input: float noise never counts as variance, and a split of two or more
distinct points into zero-variance children is accepted.

Everything here is deterministic given (inputs, seed): k-means++ draws from
numpy's ``default_rng`` stream (SeedSequence, then PCG64), which ``_pcg64``
reproduces bit for bit without numpy's random module, so the artifacts no
longer depend on that module's code; split seeds lie on the cluster's
principal axis, and ties resolve by lowest index.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, NamedTuple, Sequence

from ._numpy import np
from ._pcg64 import Generator
from .annotate import Term
from .errors import ComputationError

SPLIT_SEED_FRACTION = 0.5  # children start at +/- this fraction of the cluster radius
VARIANCE_FLOOR = 1e-12     # X-means BIC variance floor, relative to the input's variance
MAX_ITER = 300             # Lloyd passes per k-means or X-means refinement
SPLIT_RESTARTS = 3         # k-means++ restarts after the principal-axis seeding of a split


class PcaModel(NamedTuple):
    mean: np.ndarray
    components: np.ndarray          # (n_kept, m) orthonormal rows
    explained_variance: np.ndarray  # nonincreasing, one entry per kept component
    degenerate: bool = False


class ClusteringResult(NamedTuple):
    k: int
    assignments: np.ndarray  # (n,) cluster index per point
    centroids: np.ndarray    # (k, d)
    # global BIC; xmeans scores its distinct points weighted by multiplicity (n is the
    # row count) with the variance floored; NaN when undefined (n == k, zero variance)
    bic: float
    iterations: int
    distortion_history: tuple[float, ...] = ()


def build_term_vectors(
    terms_by_sentence: Mapping[str, Sequence[Term]],
    vocabulary: Sequence[Term],
) -> tuple[list[str], np.ndarray, list[str]]:
    """Term-frequency vectors over the ontology vocabulary.

    ``terms_by_sentence`` lists each sentence's canonical term occurrences
    (with repeats). Returns ``(ids, counts, excluded)``: the ids of the
    sentences with a nonzero vector, their vectors as the rows of one
    ``(len(ids), len(vocabulary))`` array, and the ids of the all-zero rest,
    which stay out of the clustering input; both id lists in input order.
    """
    if not vocabulary:
        raise ComputationError("term vector vocabulary must be nonempty")
    index = {t: i for i, t in enumerate(vocabulary)}
    counts = np.zeros((len(terms_by_sentence), len(vocabulary)))
    for row, terms in enumerate(terms_by_sentence.values()):
        for term in terms:
            i = index.get(term)
            if i is not None:
                counts[row, i] += 1.0
    kept = counts.any(axis=1)
    ids = list(terms_by_sentence)
    return (
        [sid for sid, k in zip(ids, kept) if k],
        counts[kept],
        [sid for sid, k in zip(ids, kept) if not k],
    )


def build_similarity_matrix(counts: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities of the rows of ``counts``: an (n, n)
    array, exactly symmetric, with a unit diagonal."""
    rows = np.asarray(counts, dtype=float)
    if rows.ndim != 2 or len(rows) < 2:
        raise ComputationError("similarity matrix needs at least 2 vectors")
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        bad = np.flatnonzero(norms == 0.0).tolist()
        raise ComputationError(f"zero vectors in similarity input: rows {bad}")
    unit = rows / norms[:, None]
    values = np.clip(unit @ unit.T, -1.0, 1.0)
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 1.0)
    return values


def pca_fit_transform(
    rows: np.ndarray,
    variance_target: float = 0.95,
) -> tuple[PcaModel, np.ndarray]:
    """Center, decompose, and project onto the leading principal components.

    Keeps the smallest prefix of components whose cumulative explained
    variance ratio reaches ``variance_target``, never fewer than 2 (or the
    input dimension when it is smaller). All-identical points yield a
    degenerate zero-component model and zero-dimensional output.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ComputationError("PCA needs at least 2 points")
    if not 0.0 < variance_target <= 1.0:
        raise ComputationError(f"variance target must be in (0, 1], got {variance_target}")
    n, m = rows.shape
    mean = rows.mean(axis=0)
    centered = rows - mean
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    variance = singular**2 / (n - 1)
    total = float(variance.sum())
    if total == 0.0:
        model = PcaModel(
            mean=mean,
            components=np.zeros((0, m)),
            explained_variance=np.zeros(0),
            degenerate=True,
        )
        return model, np.zeros((n, 0))

    # sign convention: the largest-magnitude entry of each component is positive
    for i in range(vt.shape[0]):
        pivot = int(np.argmax(np.abs(vt[i])))
        if vt[i, pivot] < 0:
            vt[i] = -vt[i]

    cumulative = np.cumsum(variance) / total
    n_keep = int(np.searchsorted(cumulative, variance_target - 1e-12) + 1)
    n_keep = max(n_keep, min(2, m))
    n_keep = min(n_keep, len(variance))
    model = PcaModel(
        mean=mean,
        components=vt[:n_keep].copy(),
        explained_variance=variance[:n_keep].copy(),
    )
    return model, centered @ vt[:n_keep].T


def _collapse(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bitwise-distinct rows in first-occurrence order, their multiplicities,
    and the index of each input row among the distinct ones."""
    points = points + 0.0  # -0.0 and 0.0 are one coordinate
    first: dict[bytes, int] = {}
    inverse = np.array(
        [first.setdefault(row.tobytes(), len(first)) for row in points], dtype=np.intp
    )
    _, rows = np.unique(inverse, return_index=True)
    return points[rows], np.bincount(inverse).astype(float), inverse


def _distortion(
    points: np.ndarray, weights: np.ndarray, centroids: np.ndarray, assignments: np.ndarray
) -> float:
    return float(weights @ ((points - centroids[assignments]) ** 2).sum(axis=1))


def _assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return distances.argmin(axis=1)


def _centroids(
    points: np.ndarray, weights: np.ndarray, assignments: np.ndarray, k: int
) -> np.ndarray:
    """Weighted cluster means; every cluster must own a point."""
    sums = np.zeros((k, points.shape[1]))
    np.add.at(sums, assignments, weights[:, None] * points)
    return sums / np.bincount(assignments, weights=weights, minlength=k)[:, None]


def _reseed_empties(points: np.ndarray, centroids: np.ndarray, assignments: np.ndarray, k: int) -> None:
    """Force one point into every empty cluster: each takes the point farthest
    from its own centroid among clusters that keep a point after giving one
    up. Needs k <= len(points). Mutates ``assignments`` in place."""
    counts = np.bincount(assignments, minlength=k)
    for j in np.flatnonzero(counts == 0):
        residuals = np.linalg.norm(points - centroids[assignments], axis=1)
        residuals[counts[assignments] < 2] = -1.0
        far = int(np.argmax(residuals))
        counts[assignments[far]] -= 1
        counts[j] = 1
        assignments[far] = j


def _lloyd(
    points: np.ndarray,
    weights: np.ndarray,
    centroids: np.ndarray,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, int, list[float]]:
    """Weighted Lloyd iterations to an assignment fixpoint; empty clusters
    reseed to the point currently farthest from its own centroid.

    Also stops when a pass returns the assignments and centroids it started
    from (a reseed that the update and assignment undo): every later pass
    would repeat it exactly, so the result is the one max_iter passes give."""
    k = centroids.shape[0]
    assignments = _assign(points, centroids)
    history: list[float] = []
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        before = assignments.copy()
        # reseed empties before the mean update so every cluster stays nonempty
        _reseed_empties(points, centroids, assignments, k)
        new_centroids = _centroids(points, weights, assignments, k)
        new_assignments = _assign(points, new_centroids)
        history.append(_distortion(points, weights, new_centroids, new_assignments))
        done = np.array_equal(new_assignments, assignments) or (
            np.array_equal(new_assignments, before) and np.array_equal(new_centroids, centroids)
        )
        centroids, assignments = new_centroids, new_assignments
        if done:
            break
    if np.any(np.bincount(assignments, minlength=k) == 0):
        # stopped in a cycle or at max_iter: repair so every cluster owns a point
        _reseed_empties(points, centroids, assignments, k)
        centroids = _centroids(points, weights, assignments, k)
        history.append(_distortion(points, weights, centroids, assignments))
    return assignments, centroids, iterations, history


def _kmeans_plusplus_init(
    points: np.ndarray, weights: np.ndarray, k: int, rng: Generator
) -> np.ndarray:
    """k-means++ seeds drawn with probability proportional to weight times the
    squared distance to the nearest seed; equal weights draw the first seed
    uniformly, as the unweighted algorithm does. ``rng`` may also be numpy's
    own generator, whose draws ``Generator`` reproduces."""
    n = points.shape[0]
    if np.all(weights == weights[0]):
        chosen = [int(rng.integers(n))]
    else:
        chosen = [int(rng.choice(n, p=weights / weights.sum()))]
    closest = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        mass = weights * closest
        total = float(mass.sum())
        if total == 0.0:
            chosen.append(int(rng.integers(n)))
        else:
            chosen.append(int(rng.choice(n, p=mass / total)))
        closest = np.minimum(closest, ((points - points[chosen[-1]]) ** 2).sum(axis=1))
    return points[chosen].astype(float).copy()


def _bic(
    points: np.ndarray,
    weights: np.ndarray,
    assignments: np.ndarray,
    centroids: np.ndarray,
    k: int,
    floor: float = 0.0,
) -> float:
    """BIC of weighted points: n is the total weight, and cluster sizes and
    the SSE are weighted. The pooled variance is raised to ``floor``."""
    n = float(weights.sum())
    d = points.shape[1]
    if n == k:
        raise ComputationError("BIC undefined for n == k (variance estimate has 0 dof)")
    sse = _distortion(points, weights, centroids, assignments)
    variance = max(sse / (n - k), floor)
    if variance <= 0.0:
        raise ComputationError("BIC degenerate: zero pooled variance")
    sizes = np.bincount(assignments, weights=weights, minlength=k)
    log_likelihood = (
        float(np.sum(sizes * np.log(sizes)))
        - n * math.log(n)
        - n * d / 2.0 * math.log(2.0 * math.pi * variance)
        - sse / (2.0 * variance)
    )
    return log_likelihood - (k * (d + 1) / 2.0) * math.log(n)


def _safe_bic(
    points: np.ndarray,
    weights: np.ndarray,
    assignments: np.ndarray,
    centroids: np.ndarray,
    k: int,
    floor: float = 0.0,
) -> float:
    try:
        return _bic(points, weights, assignments, centroids, k, floor)
    except ComputationError:
        return float("nan")


def _principal_direction(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    mean = weights @ points / weights.sum()
    centered = (points - mean) * np.sqrt(weights)[:, None]
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    direction = vt[0]
    pivot = int(np.argmax(np.abs(direction)))
    if direction[pivot] < 0:
        direction = -direction
    return direction


def _try_split(
    members: np.ndarray,
    weights: np.ndarray,
    centroid: np.ndarray,
    restart_seed: tuple[int, ...],
    floor: float,
) -> np.ndarray | None:
    """Local weighted 2-means on one cluster of distinct points; returns the
    two child centroids when the split improves the local BIC, else None.

    The first candidate seeding splits the centroid along the cluster's
    principal axis at +/- a fixed fraction of the radius; a few deterministic
    k-means++ restarts guard against its symmetric local optima, and the
    lowest-distortion split enters the BIC comparison; a zero-distortion
    split ends the search. Both BICs floor the pooled variance at ``floor``.
    """
    n = float(weights.sum())
    if len(members) < 2 or n < 3:  # children need n - 2 >= 1 for their variance estimate
        return None
    parent = np.zeros(len(members), dtype=int)
    try:
        parent_bic = _bic(members, weights, parent, (weights @ members / n)[None, :], 1, floor)
    except ComputationError:
        return None  # zero variance: nothing to split
    radius = float(np.max(np.linalg.norm(members - centroid, axis=1)))
    if radius == 0.0:
        return None
    offset = SPLIT_SEED_FRACTION * radius * _principal_direction(members, weights)

    def restarts():
        rng = Generator(restart_seed)
        for _ in range(SPLIT_RESTARTS):
            yield _kmeans_plusplus_init(members, weights, 2, rng)

    seedings = itertools.chain([np.stack([centroid + offset, centroid - offset])], restarts())

    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for seeds in seedings:
        assignments, centroids, _, _ = _lloyd(members, weights, seeds, MAX_ITER)
        distortion = _distortion(members, weights, centroids, assignments)
        if best is None or distortion < best[0]:
            best = (distortion, assignments, centroids)
        if distortion == 0.0:  # no restart can fit better
            break
    _, assignments, centroids = best
    if _bic(members, weights, assignments, centroids, 2, floor) > parent_bic:
        return centroids
    return None


def xmeans(
    points: np.ndarray,
    k_min: int = 2,
    k_max: int = 25,
    seed: int = 0,
) -> ClusteringResult:
    """Grow k from k_min by BIC-accepted centroid splits, then refine globally.

    X-means runs on the distinct rows, each weighted by its multiplicity, so
    identical rows always share a cluster; k_min and k_max are clamped to the
    number of distinct rows and the assignments are expanded back to every
    row. Each round tries to split every current cluster with a local 2-means
    (principal-axis seeding plus deterministic restarts, see _try_split); a
    split is kept iff the children's local BIC beats the parent's, with the
    pooled variance floored at VARIANCE_FLOOR times the input's variance.
    Rounds end when nothing splits or k reaches k_max, and every accepted
    round is followed by a global Lloyd refinement pass.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= k_min <= k_max:
        raise ComputationError(f"need 1 <= k_min <= k_max, got {k_min}, {k_max}")
    if k_max > n:
        raise ComputationError(f"k_max={k_max} exceeds point count n={n}")

    distinct, weights, inverse = _collapse(points)
    k_min = min(k_min, len(distinct))
    k_max = min(k_max, len(distinct))
    mean = weights @ distinct / n
    floor = VARIANCE_FLOOR * float(weights @ ((distinct - mean) ** 2).sum(axis=1)) / n

    rng = Generator(seed)
    centroids = _kmeans_plusplus_init(distinct, weights, k_min, rng)
    assignments, centroids, iterations, history = _lloyd(distinct, weights, centroids, MAX_ITER)
    k = k_min

    round_index = 0
    while k < k_max:
        new_centroids: list[np.ndarray] = []
        split_count = 0
        for j in range(k):
            children = None
            if k + split_count < k_max:
                mask = assignments == j
                children = _try_split(
                    distinct[mask], weights[mask], centroids[j],
                    restart_seed=(seed, round_index, j), floor=floor,
                )
            if children is None:
                new_centroids.append(centroids[j])
            else:
                new_centroids.extend(children)
                split_count += 1
        if split_count == 0:
            break
        k += split_count
        round_index += 1
        assignments, centroids, its, hist = _lloyd(
            distinct, weights, np.stack(new_centroids), MAX_ITER
        )
        iterations += its
        history.extend(hist)

    return ClusteringResult(
        k=k,
        assignments=assignments[inverse],
        centroids=centroids,
        bic=_safe_bic(distinct, weights, assignments, centroids, k, floor),
        iterations=iterations,
        distortion_history=tuple(history),
    )
