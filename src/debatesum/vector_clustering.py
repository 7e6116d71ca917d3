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

Everything runs in plain Python floats, so no BLAS kernel and no numpy
version decides a result, and every sum adds in an order no Python version
changes: ``math.fsum`` (correctly rounded) or explicit adds in a fixed
order, never builtin ``sum()``, ``math.dist`` or ``math.hypot``. Vectors and
matrices are lists of floats and lists of rows; the functions also take any
sequence of rows of numbers, numpy arrays included.

PCA solves its symmetric eigenproblem by Householder tridiagonalisation and
implicit QL. A similarity matrix is ``U Uᵀ`` of the sentences' unit term
vectors, so its rank is at most the number of distinct terms. PCA of a
``SimilarityMatrix`` works from those unit vectors. With fewer distinct terms
than sentences it runs in the coordinates ``R u`` of each unit vector, where
``RᵀR = UᵀU`` (pivoted Cholesky stopped at the numerical rank), in which the
rows keep their distances and inner products. Otherwise term space saves no
dimension, and PCA runs on the rows themselves, adding over their few
nonzero entries; that is the quicker of the two there, as the term
coordinates are dense. Any other rows, a plain list copy of a similarity
matrix included, are centered and decomposed as given, in time cubic in
their width.

Everything is deterministic given (inputs, seed): k-means++ draws from
numpy's ``default_rng`` stream (SeedSequence, then PCG64), which ``_pcg64``
reproduces bit for bit without numpy; split seeds lie on the cluster's
principal axis, and ties resolve by lowest index.
"""

from __future__ import annotations

import itertools
import math
from math import copysign, fsum, sqrt
from operator import add, mul, sub
from typing import Mapping, NamedTuple, Sequence

from ._pcg64 import Generator
from .annotate import Term
from .errors import ComputationError

SPLIT_SEED_FRACTION = 0.5  # children start at +/- this fraction of the cluster radius
VARIANCE_FLOOR = 1e-12     # X-means BIC variance floor, relative to the input's variance
MAX_ITER = 300             # Lloyd passes per k-means or X-means refinement
SPLIT_RESTARTS = 3         # k-means++ restarts after the principal-axis seeding of a split
SPLIT_AXIS_STEPS = 8       # power steps at most toward a cluster's principal axis (split seeds)
SPLIT_AXIS_TURN = 1e-3     # ... ending once a step turns the axis by less: 1 - |cos| <= this
QL_MAX_ITER = 60           # implicit QL iterations per eigenvalue
_EPS = 2.0**-52

Rows = list[list[float]]


class PcaModel(NamedTuple):
    mean: list[float]
    components: Rows                # n_kept orthonormal rows of the input's width
    explained_variance: list[float]  # nonincreasing, one entry per kept component
    degenerate: bool = False


class ClusteringResult(NamedTuple):
    k: int
    assignments: list[int]  # cluster index per point
    centroids: Rows         # k rows
    # global BIC; xmeans scores its distinct points weighted by multiplicity (n is the
    # row count) with the variance floored; NaN when undefined (n == k, zero variance)
    bic: float
    iterations: int
    distortion_history: tuple[float, ...] = ()


class SimilarityMatrix(list):
    """Cosine similarities, one list per row, that also keeps the sparse unit
    vectors ``unit`` (per row, ``(term column, value)`` pairs) whose inner
    products they are. ``pca_fit_transform`` reads ``unit``; a copy as a
    plain list is decomposed from its rows alone, to the same result up to
    rounding, in time cubic in the row count."""

    def __init__(self, rows: Rows, unit: list[list[tuple[int, float]]]) -> None:
        super().__init__(rows)
        self.unit = unit


def _rows(points, what: str) -> Rows:
    """``points`` as a list of float lists of one width."""
    rows = [list(map(float, p)) for p in points]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ComputationError(f"{what} rows differ in length")
    return rows


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    return fsum(map(mul, u, v))


def _sq_dist(u: Sequence[float], v: Sequence[float]) -> float:
    return fsum([x * x for x in map(sub, u, v)])


def _largest(v: Sequence[float]) -> int:
    """The index of the first entry of largest magnitude."""
    magnitudes = list(map(abs, v))
    return magnitudes.index(max(magnitudes))


def build_term_vectors(
    terms_by_sentence: Mapping[str, Sequence[Term]],
    vocabulary: Sequence[Term],
) -> tuple[list[str], Rows, list[str]]:
    """Term-frequency vectors over the ontology vocabulary.

    ``terms_by_sentence`` lists each sentence's canonical term occurrences
    (with repeats). Returns ``(ids, counts, excluded)``: the ids of the
    sentences with a nonzero vector, their vectors (one list of
    ``len(vocabulary)`` floats each), and the ids of the all-zero rest,
    which stay out of the clustering input; both id lists in input order.
    """
    if not vocabulary:
        raise ComputationError("term vector vocabulary must be nonempty")
    index = {t: i for i, t in enumerate(vocabulary)}
    ids, counts, excluded = [], [], []
    for sid, terms in terms_by_sentence.items():
        row = [0.0] * len(vocabulary)
        for term in terms:
            i = index.get(term)
            if i is not None:
                row[i] += 1.0
        if any(row):
            ids.append(sid)
            counts.append(row)
        else:
            excluded.append(sid)
    return ids, counts, excluded


def build_similarity_matrix(counts) -> SimilarityMatrix:
    """Pairwise cosine similarities of the rows of ``counts``: n rows of n
    floats, exactly symmetric, with a unit diagonal, each clipped to [-1, 1]."""
    n = len(counts)
    if n < 2:
        raise ComputationError("similarity matrix needs at least 2 vectors")
    unit, bad = [], []
    for i, row in enumerate(counts):
        pairs = [(j, float(x)) for j, x in enumerate(row) if x]
        norm = sqrt(fsum([x * x for _, x in pairs]))
        if norm == 0.0:
            bad.append(i)
        unit.append([(j, x / norm) for j, x in pairs] if norm else [])
    if bad:
        raise ComputationError(f"zero vectors in similarity input: rows {bad}")
    postings: dict[int, list[tuple[int, float]]] = {}
    for i, pairs in enumerate(unit):
        for j, x in pairs:
            postings.setdefault(j, []).append((i, x))
    matrix = []
    for i, pairs in enumerate(unit):
        row = [0.0] * n
        for j, x in pairs:  # a pair's products add in term order, so (i, k) equals (k, i)
            for k, y in postings[j]:
                row[k] += x * y
        row = [1.0 if v > 1.0 else -1.0 if v < -1.0 else v for v in row]
        row[i] = 1.0
        matrix.append(row)
    return SimilarityMatrix(matrix, unit)


def _term_space(unit: list[list[tuple[int, float]]], terms: list[int]):
    """Coordinates ``z = R u`` of the unit vectors over ``terms`` (sorted),
    with ``RᵀR = UᵀU`` from a pivoted Cholesky factorisation that stops at
    the numerical rank r, and the map ``v = Q w`` of an r-dimensional
    direction to sentence space, where ``U = Q R`` and Q has orthonormal
    columns. The rows of ``U Uᵀ`` and the z share all distances and inner
    products."""
    at = {j: a for a, j in enumerate(terms)}
    m = len(terms)
    gram = [[0.0] * m for _ in range(m)]
    for pairs in unit:
        for j, x in pairs:
            row = gram[at[j]]
            for k, y in pairs:
                row[at[k]] += x * y
    cols: Rows = [[] for _ in range(m)]  # cols[a][s]: entry (s, a) of R
    diag = [gram[a][a] for a in range(m)]
    tol = m * _EPS * max(diag)
    pivots: list[int] = []
    remaining = list(range(m))
    while remaining:
        p = max(remaining, key=diag.__getitem__)
        if diag[p] <= tol:
            break
        root = sqrt(diag[p])
        remaining.remove(p)
        entries = [(gram[p][a] - _dot(cols[p], cols[a])) / root for a in remaining]
        for a in range(m):
            cols[a].append(0.0)
        cols[p][-1] = root
        for a, value in zip(remaining, entries):
            cols[a][-1] = value
            diag[a] -= value * value
        pivots.append(p)
    coords = []
    for pairs in unit:
        z = [0.0] * len(pivots)
        for j, x in pairs:
            z = [zs + x * c for zs, c in zip(z, cols[at[j]])]
        coords.append(z)
    upper = [[cols[p][s] for p in pivots] for s in range(len(pivots))]  # R11, rows
    position = {terms[p]: s for s, p in enumerate(pivots)}

    def to_sentences(w: list[float]) -> list[float]:
        # Q = U[:, pivots] R11⁻¹: back-substitute R11 y = w, then U[:, pivots] y
        y: list[float] = []
        for s in range(len(upper) - 1, -1, -1):
            row = upper[s]
            y.insert(0, (w[s] - _dot(row[s + 1 :], y)) / row[s])
        return [fsum([x * y[position[j]] for j, x in pairs if j in position]) for pairs in unit]

    return coords, to_sentences


def _tridiagonalize(matrix: Rows):
    """Householder reduction of a symmetric matrix to tridiagonal T = Qᵀ A Q.

    Returns T's diagonal, its subdiagonal, and Q's reflectors ``(v, beta)``
    (None where a column needed none); the k-th acts on coordinates k + 1
    on. Each update subtracts ``v_i q_j + q_i v_j``, which is symmetric in
    (i, j) bit for bit, so the working matrix stays exactly symmetric.
    """
    work = matrix
    diag, sub_diag, reflectors = [], [], []
    while len(work) > 2:
        diag.append(work[0][0])
        x = work[0][1:]
        rest = [row[1:] for row in work[1:]]
        norm = sqrt(_dot(x, x))
        if norm == 0.0:
            sub_diag.append(0.0)
            reflectors.append(None)
            work = rest
            continue
        alpha = -copysign(norm, x[0])
        v = x
        v[0] -= alpha
        beta = 2.0 / _dot(v, v)
        p = [beta * _dot(row, v) for row in rest]
        half = 0.5 * beta * _dot(v, p)
        q = [pi - half * vi for pi, vi in zip(p, v)]
        work = [
            [b - (vi * qj + qi * vj) for b, qj, vj in zip(row, q, v)]
            for row, vi, qi in zip(rest, v, q)
        ]
        sub_diag.append(alpha)
        reflectors.append((v, beta))
    diag.append(work[0][0])
    if len(work) == 2:
        sub_diag.append(work[0][1])
        diag.append(work[1][1])
    return diag, sub_diag, reflectors


def _eigh(matrix: Rows):
    """Eigenvalues of a symmetric matrix, largest first (ties by position),
    and the matching unit eigenvectors as rows: Householder
    tridiagonalisation, then implicit QL with Wilkinson shifts.

    The sweeps take ``sqrt(f * f + g * g)`` for ``math.hypot``, whose rounding
    CPython has changed between versions; it neither overflows nor loses f
    or g for matrix entries below about 1e150 in magnitude."""
    n = len(matrix)
    # coordinates by decreasing diagonal: on the scatter of similarity rows
    # QL then needs fewer sweeps (the solver takes a fifth less time on
    # xmeans-staged's sides)
    perm = sorted(range(n), key=lambda i: -matrix[i][i])
    d, e, reflectors = _tridiagonalize([[matrix[i][j] for j in perm] for i in perm])
    e.append(0.0)
    # z = Qᵀ for Q = H_0 H_1 ..., accumulated from the last reflector, which
    # leaves all but the trailing rows alone; QL rotates its rows into the
    # eigenvectors
    z = [[0.0] * n for _ in range(n)]
    for i in range(n):
        z[i][i] = 1.0
    for k in range(len(reflectors) - 1, -1, -1):
        if reflectors[k] is not None:
            v, beta = reflectors[k]
            for row in z[k + 1 :]:
                tail = row[k + 1 :]
                t = beta * fsum(map(mul, tail, v))
                row[k + 1 :] = [x - t * y for x, y in zip(tail, v)]
    # an off-diagonal entry below the rounding of T's norm counts as zero:
    # measured against its own diagonal neighbours instead, noise between
    # zero eigenvalues (a rank-deficient input) can fail to converge
    scale = max(map(add, map(abs, d), map(abs, e)))
    for l in range(n):
        for _ in range(QL_MAX_ITER):
            m = l
            while m < n - 1:
                if abs(e[m]) + scale == scale:
                    break
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + copysign(sqrt(g * g + 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = sqrt(f * f + g * g)
                e[i + 1] = r
                if r == 0.0:  # split the matrix here and iterate again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                zi, zj = z[i], z[i + 1]
                z[i + 1] = [s * x + c * y for x, y in zip(zi, zj)]
                z[i] = [c * x - s * y for x, y in zip(zi, zj)]
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
        else:
            raise ComputationError("symmetric eigenvalue iteration did not converge")
    position = sorted(range(n), key=perm.__getitem__)
    order = sorted(range(n), key=lambda i: -d[i])
    return [d[i] for i in order], [[z[i][t] for t in position] for i in order]


def _column_means(rows: Rows) -> list[float]:
    n = len(rows)
    return [fsum(column) / n for column in zip(*rows)]


def pca_fit_transform(rows, variance_target: float = 0.95) -> tuple[PcaModel, Rows]:
    """Center, decompose, and project onto the leading principal components.

    Keeps the smallest prefix of components whose cumulative explained
    variance ratio reaches ``variance_target``, never fewer than 2 (or the
    input dimension when it is smaller). All-identical points yield a
    degenerate zero-component model and zero-dimensional output. The
    largest-magnitude entry of each component is positive. A
    ``SimilarityMatrix`` is decomposed through its unit vectors: in term
    space when it has fewer distinct terms than rows, else over its rows'
    nonzero entries. Every other input is centered and decomposed as given.
    """
    unit = rows.unit if isinstance(rows, SimilarityMatrix) else None
    rows = _rows(rows, "PCA input")
    if len(rows) < 2:
        raise ComputationError("PCA needs at least 2 points")
    if not 0.0 < variance_target <= 1.0:
        raise ComputationError(f"variance target must be in (0, 1], got {variance_target}")
    n, width = len(rows), len(rows[0])
    mean = _column_means(rows)
    terms = sorted({j for pairs in unit for j, _ in pairs}) if unit else []
    coords, to_input, nonzero = rows, None, None
    if unit and len(terms) < n:
        coords, to_input = _term_space(unit, terms)
    elif unit:
        # sentence space, where a similarity row has a few nonzeros: add over
        # them, with S̃ᵀS̃ = Σ s sᵀ - n μμᵀ and S̃ w = S w - μ·w
        nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
        scatter = [[-n * (a * b) for b in mean] for a in mean]
        for pairs in nonzero:
            for j, x in pairs:
                target = scatter[j]
                for k, y in pairs:
                    target[k] += x * y
    if nonzero is None:
        center = _column_means(coords)
        centered = [list(map(sub, row, center)) for row in coords]
        columns = list(zip(*centered))
        scatter = [[0.0] * len(columns) for _ in columns]
        for a, ca in enumerate(columns):
            for b in range(a, len(columns)):
                scatter[a][b] = scatter[b][a] = _dot(ca, columns[b])
    values, vectors = _eigh(scatter) if scatter else ([], [])
    variance = [max(v, 0.0) / (n - 1) for v in values]
    total = fsum(variance)
    if total == 0.0:
        model = PcaModel(mean=mean, components=[], explained_variance=[], degenerate=True)
        return model, [[] for _ in rows]

    n_keep, cumulative = len(variance), 0.0
    for i, v in enumerate(variance):
        cumulative += v
        if cumulative / total >= variance_target - 1e-12:
            n_keep = i + 1
            break
    n_keep = min(max(n_keep, min(2, width)), len(variance), n)
    components, directions = [], []
    for w in vectors[:n_keep]:
        component = to_input(w) if to_input else w
        if component[_largest(component)] < 0:
            component, w = [-x for x in component], [-x for x in w]
        components.append(component)
        directions.append(w)
    model = PcaModel(mean=mean, components=components, explained_variance=variance[:n_keep])
    if nonzero is None:
        return model, [[_dot(row, w) for w in directions] for row in centered]
    shifts = [_dot(mean, w) for w in directions]
    return model, [
        [fsum([x * w[j] for j, x in pairs]) - shift for w, shift in zip(directions, shifts)]
        for pairs in nonzero
    ]


def _collapse(points: Rows) -> tuple[Rows, list[float], list[int]]:
    """Distinct rows (-0.0 equals 0.0) in first-occurrence order, their
    multiplicities, and the index of each input row among the distinct ones."""
    first: dict[tuple[float, ...], int] = {}
    inverse = [first.setdefault(tuple(row), len(first)) for row in points]
    distinct: Rows = [[] for _ in first]
    weights = [0.0] * len(first)
    for row, i in zip(points, inverse):
        if not weights[i]:
            distinct[i] = row
        weights[i] += 1.0
    return distinct, weights, inverse


def _distortion(
    points: Rows, weights: list[float], centroids: Rows, assignments: list[int]
) -> float:
    return fsum([w * _sq_dist(p, centroids[a]) for p, w, a in zip(points, weights, assignments)])


def _sizes(weights: list[float], assignments: list[int], k: int) -> list[float]:
    members: list[list[float]] = [[] for _ in range(k)]
    for w, a in zip(weights, assignments):
        members[a].append(w)
    return [fsum(ws) for ws in members]


def _assign(points: Rows, centroids: Rows) -> list[int]:
    """Each point's nearest centroid, the lowest index among ties. Centroid j
    is nearer than centroid 0 by ``p·a - a·(c_j + c_0)/2`` for ``a = c_j -
    c_0``, half the difference of the squared distances, so a point costs
    k - 1 dots. Each product rounds relative to itself, so points far from
    the origin keep their order: ``|c_j|² - |c_0|²`` computed from the two
    norms would lose the difference to cancellation."""
    base = centroids[0]
    rivals = []
    for c in centroids[1:]:
        axis = list(map(sub, c, base))
        rivals.append((axis, 0.5 * fsum(map(mul, axis, map(add, c, base)))))
    if len(rivals) == 1:
        axis, cut = rivals[0]
        return [1 if fsum(map(mul, p, axis)) > cut else 0 for p in points]
    out = []
    for p in points:
        best, nearest = 0.0, 0
        for j, (axis, cut) in enumerate(rivals, 1):
            gain = fsum(map(mul, p, axis)) - cut
            if gain > best:
                best, nearest = gain, j
        out.append(nearest)
    return out


def _centroids(points: Rows, weights: list[float], assignments: list[int], k: int) -> Rows:
    """Weighted cluster means, each member added in turn; every cluster must
    own a point."""
    sums: list = [None] * k
    totals = [0.0] * k
    for p, w, a in zip(points, weights, assignments):
        scaled = p if w == 1.0 else [w * x for x in p]
        sums[a] = scaled if sums[a] is None else list(map(add, sums[a], scaled))
        totals[a] += w
    return [[x / total for x in row] for row, total in zip(sums, totals)]


def _reseed_empties(points: Rows, centroids: Rows, assignments: list[int], k: int) -> None:
    """Force one point into every empty cluster: each takes the point farthest
    from its own centroid among clusters that keep a point after giving one
    up. Needs k <= len(points). Mutates ``assignments`` in place."""
    counts = [0] * k
    for a in assignments:
        counts[a] += 1
    for j in range(k):
        if counts[j]:
            continue
        residuals = [
            _sq_dist(p, centroids[a]) if counts[a] >= 2 else -1.0
            for p, a in zip(points, assignments)
        ]
        far = residuals.index(max(residuals))
        counts[assignments[far]] -= 1
        counts[j] = 1
        assignments[far] = j


def _lloyd(
    points: Rows,
    weights: list[float],
    centroids: Rows,
    max_iter: int,
    history: list[float] | None = None,
) -> tuple[list[int], Rows, int]:
    """Weighted Lloyd iterations to an assignment fixpoint; empty clusters
    reseed to the point currently farthest from its own centroid. Appends
    each pass's distortion to ``history`` when one is given.

    Also stops when a pass returns the assignments and centroids it started
    from (a reseed that the update and assignment undo): every later pass
    would repeat it exactly, so the result is the one max_iter passes give."""
    k = len(centroids)
    assignments = _assign(points, centroids)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        before = assignments[:]
        # reseed empties before the mean update so every cluster stays nonempty
        _reseed_empties(points, centroids, assignments, k)
        new_centroids = _centroids(points, weights, assignments, k)
        new_assignments = _assign(points, new_centroids)
        if history is not None:
            history.append(_distortion(points, weights, new_centroids, new_assignments))
        done = new_assignments == assignments or (
            new_assignments == before and new_centroids == centroids
        )
        centroids, assignments = new_centroids, new_assignments
        if done:
            break
    if len(set(assignments)) < k:
        # stopped in a cycle or at max_iter: repair so every cluster owns a point
        _reseed_empties(points, centroids, assignments, k)
        centroids = _centroids(points, weights, assignments, k)
        if history is not None:
            history.append(_distortion(points, weights, centroids, assignments))
    return assignments, centroids, iterations


def _kmeans_plusplus_init(points: Rows, weights: list[float], k: int, rng: Generator) -> Rows:
    """k-means++ seeds drawn with probability proportional to weight times the
    squared distance to the nearest seed; equal weights draw the first seed
    uniformly, as the unweighted algorithm does."""
    n = len(points)
    if all(w == weights[0] for w in weights):
        chosen = [rng.integers(n)]
    else:
        total = fsum(weights)
        chosen = [rng.choice(n, p=[w / total for w in weights])]
    closest: list[float] = []
    for _ in range(1, k):
        seed = points[chosen[-1]]
        distances = [_sq_dist(p, seed) for p in points]
        closest = list(map(min, closest, distances)) if closest else distances
        mass = list(map(mul, weights, closest))
        total = fsum(mass)
        if total == 0.0:
            chosen.append(rng.integers(n))
        else:
            chosen.append(rng.choice(n, p=[x / total for x in mass]))
    return [points[i] for i in chosen]


def _bic(sse: float, sizes: list[float], d: int, floor: float = 0.0) -> float:
    """BIC of a clustering of weighted points in d dimensions with squared
    error ``sse`` and cluster weights ``sizes``: n is the total weight. The
    pooled variance is raised to ``floor``."""
    k = len(sizes)
    n = fsum(sizes)
    if n == k:
        raise ComputationError("BIC undefined for n == k (variance estimate has 0 dof)")
    variance = max(sse / (n - k), floor)
    if variance <= 0.0:
        raise ComputationError("BIC degenerate: zero pooled variance")
    log_likelihood = (
        fsum([s * math.log(s) for s in sizes if s > 0.0])
        - n * math.log(n)
        - n * d / 2.0 * math.log(2.0 * math.pi * variance)
        - sse / (2.0 * variance)
    )
    return log_likelihood - (k * (d + 1) / 2.0) * math.log(n)


def _principal_direction(
    points: Rows, weights: list[float], center: list[float], start: int
) -> list[float]:
    """A unit vector near the weighted principal axis of ``points`` about
    ``center``: power steps from the centered point ``points[start]`` (which
    must differ from ``center``) until one turns the axis by at most
    SPLIT_AXIS_TURN, or SPLIT_AXIS_STEPS of them; oriented so that its
    largest-magnitude entry is positive."""
    centered = [list(map(sub, p, center)) for p in points]
    v = centered[start]
    v = [x / sqrt(_dot(v, v)) for x in v]
    for _ in range(SPLIT_AXIS_STEPS):
        step = [0.0] * len(v)
        for w, x in zip(weights, centered):
            score = w * fsum(map(mul, x, v))
            step = [a + score * b for a, b in zip(step, x)]
        norm = sqrt(_dot(step, step))
        step = [x / norm for x in step]
        turn = 1.0 - abs(_dot(step, v))
        v = step
        if turn <= SPLIT_AXIS_TURN:
            break
    return [-x for x in v] if v[_largest(v)] < 0 else v


def _try_split(
    members: Rows,
    weights: list[float],
    centroid: list[float],
    restart_seed: tuple[int, ...],
    floor: float,
) -> Rows | None:
    """Local weighted 2-means on one cluster of distinct points; returns the
    two child centroids when the split improves the local BIC, else None.

    The first candidate seeding splits the centroid along the cluster's
    principal axis at +/- a fixed fraction of the radius; a few deterministic
    k-means++ restarts guard against its symmetric local optima, and the
    lowest-distortion split enters the BIC comparison; a zero-distortion
    split ends the search. Both BICs floor the pooled variance at ``floor``;
    the parent's measures the members' spread about ``centroid``.
    """
    n = fsum(weights)
    if len(members) < 2 or n < 3:  # children need n - 2 >= 1 for their variance estimate
        return None
    distances = [_sq_dist(p, centroid) for p in members]
    d = len(centroid)
    try:
        parent_bic = _bic(fsum(map(mul, weights, distances)), [n], d, floor)
    except ComputationError:
        return None  # zero variance: nothing to split
    farthest = max(distances)
    if farthest == 0.0:
        return None
    axis = _principal_direction(members, weights, centroid, distances.index(farthest))
    offset = [SPLIT_SEED_FRACTION * sqrt(farthest) * x for x in axis]

    def restarts():
        rng = Generator(restart_seed)
        for _ in range(SPLIT_RESTARTS):
            yield _kmeans_plusplus_init(members, weights, 2, rng)

    axis_seeds = [list(map(add, centroid, offset)), list(map(sub, centroid, offset))]
    best: tuple[float, list[int], Rows] | None = None
    for seeds in itertools.chain([axis_seeds], restarts()):
        assignments, centroids, _ = _lloyd(members, weights, seeds, MAX_ITER)
        distortion = _distortion(members, weights, centroids, assignments)
        if best is None or distortion < best[0]:
            best = (distortion, assignments, centroids)
        if distortion == 0.0:  # no restart can fit better
            break
    distortion, assignments, centroids = best
    if _bic(distortion, _sizes(weights, assignments, 2), d, floor) > parent_bic:
        return centroids
    return None


def xmeans(
    points,
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
    points = _rows(points, "X-means input")
    n = len(points)
    if not 1 <= k_min <= k_max:
        raise ComputationError(f"need 1 <= k_min <= k_max, got {k_min}, {k_max}")
    if k_max > n:
        raise ComputationError(f"k_max={k_max} exceeds point count n={n}")

    distinct, weights, inverse = _collapse(points)
    k_min = min(k_min, len(distinct))
    k_max = min(k_max, len(distinct))
    everyone = [0] * len(distinct)
    spread = _distortion(distinct, weights, _centroids(distinct, weights, everyone, 1), everyone)
    floor = VARIANCE_FLOOR * spread / n

    rng = Generator(seed)
    history: list[float] = []
    centroids = _kmeans_plusplus_init(distinct, weights, k_min, rng)
    assignments, centroids, iterations = _lloyd(
        distinct, weights, centroids, MAX_ITER, history=history
    )
    k = k_min

    round_index = 0
    while k < k_max:
        new_centroids: Rows = []
        split_count = 0
        for j in range(k):
            children = None
            if k + split_count < k_max:
                mask = [a == j for a in assignments]
                children = _try_split(
                    list(itertools.compress(distinct, mask)),
                    list(itertools.compress(weights, mask)),
                    centroids[j],
                    restart_seed=(seed, round_index, j),
                    floor=floor,
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
        assignments, centroids, its = _lloyd(
            distinct, weights, new_centroids, MAX_ITER, history=history
        )
        iterations += its

    try:
        bic = _bic(
            _distortion(distinct, weights, centroids, assignments),
            _sizes(weights, assignments, k), len(distinct[0]), floor,
        )
    except ComputationError:
        bic = math.nan
    return ClusteringResult(
        k=k,
        assignments=[assignments[i] for i in inverse],
        centroids=centroids,
        bic=bic,
        iterations=iterations,
        distortion_history=tuple(history),
    )
