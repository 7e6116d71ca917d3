"""The silhouette in plain floats, rounded as numpy rounds it.

numpy adds a row of floats in pairwise order (``pairwise_sum`` in its
``loops_utils.h.src``), and ``pairwise_sum`` does the same in Python, so the
silhouette scores, and the artifacts that hold them, have the bits numpy gave
them. ``evalkit.silhouette`` imports this module for both metrics, and
``_cosine`` for the cosine distances.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import chain
from operator import add, itemgetter, mul, sub
from typing import Callable, Sequence

from .errors import ComputationError


def pairwise_sum(values: Sequence, lo: int, hi: int, plus: Callable = add):
    """numpy's pairwise sum of ``values[lo:hi]``, adding with ``plus``; ``hi > lo``.

    Below 8 values it adds in sequence; up to 128 it keeps eight accumulators,
    one per position modulo 8, adds them in a fixed tree and then the rest in
    sequence; above 128 it splits at a multiple of 8 near the middle. numpy
    starts the loop below 8 from -0.0, and -0.0 + x is x for every float x.
    """
    n = hi - lo
    if n < 8:
        return reduce(plus, values[lo + 1 : hi], values[lo])
    if n <= 128:
        stop = hi - n % 8
        r = [reduce(plus, values[k + 8 : stop : 8], values[k]) for k in range(lo, lo + 8)]
        tree = plus(plus(plus(r[0], r[1]), plus(r[2], r[3])), plus(plus(r[4], r[5]), plus(r[6], r[7])))
        return reduce(plus, values[stop:hi], tree)
    half = n // 2 - n // 2 % 8
    return plus(pairwise_sum(values, lo, lo + half, plus), pairwise_sum(values, lo + half, hi, plus))


def _add_rows(u: Sequence[float], v: Sequence[float]) -> list[float]:
    return list(map(add, u, v))


def point_rows(points: Sequence) -> list:
    """``points`` as a list of rows: one row of numbers per point, or one
    number per point; a numpy array serves too."""
    points = points.tolist() if hasattr(points, "tolist") else list(points)
    if not isinstance(points[0], (list, tuple)):  # one number per point
        points = [[x] for x in points]
    return points


def euclidean_distances(points: Sequence) -> list[Sequence[float]]:
    """The full matrix of euclidean distances between ``points`` (``point_rows``).

    Each pair's distance is the square root of its squared differences summed
    pairwise, for every pair at once: a value of ``pairwise_sum`` is then one
    row of floats. A squared difference is never -0.0, so numpy's ``0.0 +``
    before the reduction leaves the sum as it is.
    """
    points = point_rows(points)
    n = len(points)
    # each pair i < j once, row after row, then (0, 0): its distance is numpy's
    # diagonal 0.0, and with it an itemgetter of the pairs always gives a tuple
    first = itemgetter(*[i for i in range(n) for _ in range(i + 1, n)], 0)
    second = itemgetter(*[j for i in range(n) for j in range(i + 1, n)], 0)
    squares = []
    for column in zip(*points):
        column = list(map(float, column))  # numpy's dtype=float: no integer arithmetic
        diff = list(map(sub, first(column), second(column)))
        squares.append(list(map(mul, diff, diff)))
    zero = n * (n - 1) // 2  # where (0, 0) is
    squares = squares or [[0.0] * (zero + 1)]  # points without coordinates
    distances = list(map(math.sqrt, pairwise_sum(squares, 0, len(squares), _add_rows)))
    # the full matrix, row after row; pair (i, j) of i < j is at offset[i] + j - i - 1
    offset = [i * (2 * n - i - 1) // 2 for i in range(n)]
    index = []
    for i in range(n):
        index += [offset[j] + i - j - 1 for j in range(i)]
        index.append(zero)
        index += range(offset[i], offset[i] + n - 1 - i)
    full = itemgetter(*index)(distances)
    return [full[i * n : i * n + n] for i in range(n)]


def silhouette_scores(distances: Sequence, assignments: Sequence) -> tuple[tuple[float, ...], float]:
    """Per-point silhouette scores and their mean, as ``evalkit.silhouette``
    defines them, from the symmetric matrix of all the points' distances and
    their assignments to at least two clusters.

    A cluster's member rows are added pairwise in index order, so by symmetry
    entry p of the sum is point p's distances to the members summed as numpy
    sums them. No distance is -0.0, so numpy's ``0.0 +`` before each
    reduction leaves the sums as they are.
    """
    n = len(distances)
    clusters: dict = {}
    for i, label in enumerate(assignments):
        clusters.setdefault(label, []).append(i)
    groups = list(clusters.values())
    # one row per cluster: each point's summed distance to the cluster's members
    sums = [pairwise_sum([distances[i] for i in group], 0, len(group), _add_rows) for group in groups]
    if not all(map(math.isfinite, chain.from_iterable(sums))):
        raise ComputationError("silhouette distances exceed the float range")
    means = [[total / len(group) for total in row] for row, group in zip(sums, groups)]
    per_point = [0.0] * n
    for c, group in enumerate(groups):
        if len(group) == 1:
            continue  # a singleton scores 0
        others = means[:c] + means[c + 1 :]
        for p in group:
            a = (sums[c][p] - distances[p][p]) / (len(group) - 1)
            b = min(row[p] for row in others)
            denom = max(a, b)
            if denom > 0:
                per_point[p] = (b - a) / denom
    return tuple(per_point), (0.0 + pairwise_sum(per_point, 0, n)) / n
