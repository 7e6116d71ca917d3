"""Evaluation metrics: ROUGE-1/2/SU4, silhouette, Mann-Whitney U, Krippendorff's alpha.

ROUGE uses clipped n-gram counts per reference; the SU4 variant counts
skip-bigrams with up to four intervening words plus unigrams. Scores against
multiple references aggregate by mean.
No stemming or stopword removal happens here: tokens are compared as given.

Everything runs in plain Python floats and ints. The silhouette's sums are
``math.fsum``, correctly rounded, and no longer match numpy's to the bit;
the cosine distances' dot products add in ascending coordinate order
(``_cosine``). Other float sums add left to right, as builtin ``sum()`` of
floats compensates from Python 3.12 on.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from functools import reduce
from itertools import chain, compress, repeat
from operator import add, and_, eq, mul, sub
from typing import Collection, NamedTuple, Sequence

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


def _column_means(scores: Sequence[Sequence[float]]) -> list[float]:
    """The mean over references of rows of scores, such as (recall,
    precision, f1) triples, each column added left to right."""
    return [reduce(add, column, 0.0) / len(scores) for column in zip(*scores)]


def _mean_score(variant: RougeVariant, scores: Sequence[tuple[float, float, float]]) -> RougeScore:
    return RougeScore(variant, *_column_means(scores))


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


def _levels(units: list) -> list[set]:
    """The multiset ``units`` as its levels: level k holds the units that occur
    more than k times. The clipped overlap of two multisets, the sum over
    units of the smaller count, is the sum over k of their level k's common
    units (``_overlap``)."""
    levels = [set(units)]
    while len(levels[-1]) != len(units):
        ordered = sorted(units)
        # every occurrence of a unit after its first
        units = list(compress(ordered[1:], map(eq, ordered, ordered[1:])))
        levels.append(set(units))
    return levels


def _overlap(a: list[set], b: list[set]) -> int:
    return sum(map(len, map(and_, a, b)))


def rouge_batch(
    sentences: Sequence, sequences: Sequence[Collection[str]], n_systems: int
) -> list[list[list[float]]]:
    """Mean ROUGE of each of the first ``n_systems`` token sequences against
    every later one: what ``rouge`` gives, as nested lists (system,
    ``RougeVariant``, (recall, precision, f1)).

    A sequence is a set of the ids of ``sentences`` (each with an ``id`` and
    its ``tokens``), and holds their tokens in sentence order. Each token
    becomes an id below v, the number of distinct tokens plus one, and a token
    pair (a, b) the id a * v + b. A sequence's units of each kind (tokens,
    bigrams, and the skip-bigrams of SU4, whose unigrams are R1's) are
    ``_levels`` and a total.
    """
    distinct = dict.fromkeys(chain.from_iterable(s.tokens for s in sentences))
    vocab = {t: i for i, t in enumerate(distinct)}
    encoded = [list(map(vocab.__getitem__, s.tokens)) for s in sentences]
    v = len(vocab) + 1
    rows = []
    for sequence in sequences:
        tokens = list(chain.from_iterable(compress(encoded, [s.id in sequence for s in sentences])))
        scaled = list(map(mul, tokens, repeat(v)))
        bigrams = list(map(add, scaled, tokens[1:]))
        skips = bigrams.copy()  # the pairs at gaps 1 to 5
        for gap in range(2, 6):
            skips += map(add, scaled, tokens[gap:])
        n = len(tokens)
        rows.append((_levels(tokens), _levels(bigrams), _levels(skips),
                     (n, len(bigrams), len(skips) + n)))  # SU4 counts the unigrams too
    out = []
    for r1, r2, su4, system_totals in rows[:n_systems]:
        per_reference = []  # per reference, the (recall, precision, f1) of each variant in a row
        for ref_r1, ref_r2, ref_su4, ref_totals in rows[n_systems:]:
            unigrams = _overlap(r1, ref_r1)
            matches = (unigrams, _overlap(r2, ref_r2), _overlap(su4, ref_su4) + unigrams)
            per_reference.append(list(chain.from_iterable(
                map(_recall_precision_f1, matches, system_totals, ref_totals))))
        means = _column_means(per_reference)  # as ``rouge`` averages them
        out.append([means[0:3], means[3:6], means[6:9]])
    return out


def silhouette(
    points: Sequence,
    assignments: Sequence[int],
    metric: str = "euclidean",
) -> SilhouetteReport:
    """Per-point (b - a) / max(a, b) and its mean.

    a is the mean distance to the point's own cluster (self excluded), b the
    smallest mean distance to any other cluster. Points in singleton clusters
    score 0 by convention. At least two nonempty clusters are required.
    ``points`` holds one row per point, or one number per point; a euclidean
    distance beyond the float range is an error, and so is a cosine distance
    to a zero or non-finite vector.

    A euclidean distance is the square root of its squares' ``math.fsum``,
    and a cosine distance 1 minus the similarity of ``_cosine``; each is
    computed once per pair of distinct points. Every sum over points is a
    ``math.fsum``: correctly rounded, so no score depends on the order of the
    points or the numbering of the clusters.
    """
    if len(set(assignments)) < 2:
        raise ComputationError("silhouette undefined for k = 1")
    points = points.tolist() if hasattr(points, "tolist") else list(points)
    if not isinstance(points[0], (list, tuple)):  # one number per point
        points = [[x] for x in points]
    clusters: dict = {}
    for i, label in enumerate(assignments):
        clusters.setdefault(label, []).append(i)
    groups = list(clusters.values())
    per_point = [0.0] * len(points)
    try:
        # the distances between the distinct points, and each point's number among them
        if metric == "euclidean":
            index: dict[tuple, int] = {}
            of_point = [index.setdefault(tuple(point), len(index)) for point in points]
            rows = [list(map(float, point)) for point in index]
            distances = [[0.0] * len(rows) for _ in rows]
            for i, u in enumerate(rows):
                for j in range(i + 1, len(rows)):
                    squares = [x * x for x in map(sub, u, rows[j])]
                    distances[i][j] = distances[j][i] = math.sqrt(math.fsum(squares))
        elif metric == "cosine_distance":
            from ._cosine import similarities, unit_vectors  # only a cosine silhouette compiles it

            of_point, units = unit_vectors(points)
            if None in units:
                raise ComputationError("cosine distance undefined for zero or non-finite vectors")
            distances = [[1.0 - s for s in row] for row in similarities(units)]
        else:
            raise ComputationError(f"unknown silhouette metric {metric!r}")
        if not all(map(math.isfinite, chain.from_iterable(distances))):
            raise OverflowError  # a distance past the float range, or NaN
        members = [[of_point[i] for i in group] for group in groups]
        for c, group in enumerate(groups):
            if len(group) == 1:
                continue  # a singleton scores 0
            others = members[:c] + members[c + 1 :]
            for p in group:
                row = distances[of_point[p]]
                # fsum rounds once, after adding exactly, so taking the point's own
                # distance back out leaves a's sum without a trace
                own = [*map(row.__getitem__, members[c]), -row[of_point[p]]]
                a = math.fsum(own) / (len(group) - 1)
                b = min(math.fsum(map(row.__getitem__, m)) / len(m) for m in others)
                denom = max(a, b)
                if denom > 0:
                    per_point[p] = (b - a) / denom
    except OverflowError:  # math.fsum's, or a distance past the float range
        raise ComputationError("silhouette distances exceed the float range") from None
    return SilhouetteReport(tuple(per_point), math.fsum(per_point) / len(per_point))


def mann_whitney_u(sample_a: Sequence[float], sample_b: Sequence[float]) -> MannWhitneyResult:
    """Rank-sum U statistics with midrank ties and the normal approximation.

    The z statistic uses the tie-corrected variance; two samples with no
    variation at all give z = 0, p = 1. Effect size r = |z| / sqrt(n_a + n_b).
    """
    a, b = list(map(float, sample_a)), list(map(float, sample_b))
    if not a or not b:
        raise ComputationError("Mann-Whitney needs two nonempty samples")
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    combined = a + b

    order = sorted(range(n), key=combined.__getitem__)  # stable: ties keep sample order
    ranks = [0.0] * n
    i = 0
    tie_correction = 0.0
    while i < n:
        j = i
        while j + 1 < n and combined[order[j + 1]] == combined[order[i]]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        for k in order[i : j + 1]:
            ranks[k] = midrank
        t = j - i + 1
        tie_correction += t**3 - t
        i = j + 1

    # midranks are halves of integers, so their sum is exact in any order
    rank_sum_a = reduce(add, ranks[:n_a], 0.0)
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
