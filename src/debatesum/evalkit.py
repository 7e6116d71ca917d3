"""Evaluation metrics: ROUGE-1/2/SU4, silhouette, Mann-Whitney U, Krippendorff's alpha.

ROUGE uses clipped n-gram counts per reference; the SU4 variant counts
skip-bigrams with up to four intervening words plus unigrams. Scores against
multiple references aggregate by mean.
No stemming or stopword removal happens here: tokens are compared as given.

The silhouette adds plain floats in numpy's pairwise order (``_pairwise``),
so its scores keep the bits numpy gave them; only the cosine distance matrix
is numpy's. Other float sums add left to right, as builtin ``sum()`` of
floats compensates from Python 3.12 on.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from functools import reduce
from operator import add
from typing import Collection, NamedTuple, Sequence

from ._numpy import np
from .errors import ComputationError


class RougeVariant(str, Enum):
    R1 = "R1"
    R2 = "R2"
    RSU4 = "RSU4"


class RougeScore(NamedTuple):
    variant: RougeVariant
    recall: float
    precision: float
    f1: float


class SilhouetteReport(NamedTuple):
    per_point: tuple[float, ...]
    mean: float


class MannWhitneyResult(NamedTuple):
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
    """The mean over references of (recall, precision, f1) triples, each
    column added left to right."""
    recall, precision, f1 = (reduce(add, column, 0.0) / len(scores) for column in zip(*scores))
    return RougeScore(variant=variant, recall=recall, precision=precision, f1=f1)


def rouge(
    system: Sequence[str],
    references: Sequence[Sequence[str]],
    variant: RougeVariant = RougeVariant.R1,
) -> RougeScore:
    """Mean ROUGE score of a system token sequence over one or more references."""
    if not references:
        raise ComputationError("ROUGE needs at least one reference summary")
    variant = RougeVariant(variant)
    n = {RougeVariant.R1: 1, RougeVariant.R2: 2}.get(variant)  # None: SU4
    system_units, *reference_units = (
        _su4_units(tokens) if n is None else ngram_counts(tokens, n)
        for tokens in (system, *references)
    )
    total_sys = sum(system_units.values())
    return _mean_score(variant, [
        _recall_precision_f1(_clipped_overlap(system_units, ref), total_sys, sum(ref.values()))
        for ref in reference_units
    ])


def rouge_batch(sentences: Sequence, sequences: Sequence[Collection[str]], n_systems: int) -> np.ndarray:
    """Mean ROUGE of each of the first ``n_systems`` token sequences against
    every later one: what ``rouge`` gives, as an array of shape (system,
    ``RougeVariant``, (recall, precision, f1)).

    A sequence is a set of the ids of ``sentences`` (each with an ``id`` and
    its ``tokens``), and holds their tokens in sentence order. Each token
    becomes an id; a unit's key is a token id (R1) or a token pair (a, b) as
    a * vocab_size + b (R2, and SU4, whose unigrams are R1's), plus
    t * vocab_size**2 for the kind t. Units are indexed through a table of
    all 3 * vocab_size**2 keys: to keep it small, the tokens of no reference
    share one id, as a unit holding one never matches.
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
    for ref in range(1, n_rows - n_systems):  # added in order, as _mean_score adds
        total = total + scores[:, ref]
    return total / (n_rows - n_systems)


def silhouette(
    points: np.ndarray,
    assignments: Sequence[int],
    metric: str = "euclidean",
) -> SilhouetteReport:
    """Per-point (b - a) / max(a, b) and its mean.

    a is the mean distance to the point's own cluster (self excluded), b the
    smallest mean distance to any other cluster. Points in singleton clusters
    score 0 by convention. At least two nonempty clusters are required.
    ``points`` holds one row per point, or one number per point; a euclidean
    distance beyond the float range is an error.
    """
    if len(set(assignments)) < 2:
        raise ComputationError("silhouette undefined for k = 1")
    # imported here, so only a silhouette compiles it
    from ._pairwise import euclidean_distances, silhouette_scores

    if metric == "euclidean":
        distances = euclidean_distances(points)
    elif metric == "cosine_distance":
        points = np.asarray(points, dtype=float).reshape(len(points), -1)
        norms = np.linalg.norm(points, axis=1)
        if np.any(norms == 0.0):
            raise ComputationError("cosine distance undefined for zero vectors")
        unit = points / norms[:, None]
        distances = (1.0 - np.clip(unit @ unit.T, -1.0, 1.0)).tolist()
    else:
        raise ComputationError(f"unknown silhouette metric {metric!r}")
    return SilhouetteReport(*silhouette_scores(distances, assignments))


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
                try:
                    d2 = (x - y) ** 2
                except OverflowError:  # beyond the float range: inf, as when x - y overflows
                    d2 = math.inf
            elif metric == "ordinal":
                lo, hi = min(x, y), max(x, y)
                between = reduce(add, (counts[g] for g in values if lo <= g <= hi), 0.0)
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
    error. Unanimous ratings give alpha = 1 for every metric. Ratings whose
    observed and expected disagreements both exceed the float range are an
    error too: alpha would be infinity over infinity.
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
    total = reduce(add, value_counts.values(), 0.0)

    domain = sorted(value_counts)
    d2 = _difference_squared(domain, value_counts, metric)

    observed = reduce(add, (count * d2[pair] for pair, count in coincidence.items()), 0.0) / total
    expected = reduce(
        add, (value_counts[v] * value_counts[w] * d2[(v, w)] for v in domain for w in domain), 0.0
    ) / (total * (total - 1))
    if expected == 0.0:
        return 1.0  # zero expected disagreement: unanimous ratings
    alpha = 1.0 - observed / expected
    if alpha != alpha:  # NaN: infinity over infinity
        raise ComputationError(
            "Krippendorff's alpha is undefined: the observed and expected "
            "disagreements both exceed the float range"
        )
    return alpha
