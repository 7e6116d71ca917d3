"""The one sparse-cosine kernel, in plain floats: the unit vectors of the
distinct rows of a matrix, and their clipped dot products.

``vector_clustering.build_similarity_matrix`` and the cosine silhouette of
``evalkit.silhouette`` both call it. A norm adds its squares with
``math.fsum``, correctly rounded, and a dot product adds its products in
ascending coordinate order, which no BLAS kernel promises: no kernel decides
their bits. On term counts, small integers, every norm is exact, as it was
when the similarity matrix added its squares in sequence. The silhouette's
sums are ``math.fsum`` too, so its scores no longer match numpy's to the bit.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import mul, truediv
from typing import Sequence


def unit_vectors(rows: Sequence[Sequence]) -> tuple[list[int], list]:
    """``(of_row, units)``: per distinct row of ``rows``, its unit vector's
    nonzero ``(coordinate, value)`` pairs in coordinate order, or None for a
    zero or non-finite row; ``of_row[i]`` numbers row i's distinct row.

    Each row is first scaled by the power of two nearest its largest
    magnitude, which is exact while its squares stay in the float range, and
    so moves no bit there; beyond it, the row still counts as its direction.
    """
    index: dict[tuple, int] = {}  # distinct row -> its number (1 == 1.0: ints and floats agree)
    of_row = [index.setdefault(tuple(row), len(index)) for row in rows]
    units = []
    for row in index:
        at = list(compress(range(len(row)), row))  # the nonzero coordinates
        values = [float(row[c]) for c in at]
        if not values or not all(map(math.isfinite, values)):
            units.append(None)
            continue
        values = list(map(math.ldexp, values, repeat(-math.frexp(max(map(abs, values)))[1])))
        norm = math.sqrt(math.fsum(map(mul, values, values)))
        units.append(list(zip(at, map(truediv, values, repeat(norm)))))
    return of_row, units


def similarities(units: Sequence[Sequence[tuple[int, float]]]) -> list[list[float]]:
    """Each unit vector's dot products with all of ``units`` (``unit_vectors``,
    without a None), clipped to [-1, 1].

    A dot product adds the products of the coordinates where both vectors
    are nonzero, in ascending coordinate order, from 0.0, so that (u, v) and
    (v, u) are equal: the posting list of each coordinate holds the vectors
    nonzero there, and a pair that shares no coordinate stays at 0.0.
    """
    postings: dict[int, list[tuple[int, float]]] = {}
    for i, unit in enumerate(units):
        for c, x in unit:
            postings.setdefault(c, []).append((i, x))
    rows = []
    for unit in units:
        dots = [0.0] * len(units)
        for c, x in unit:
            for j, y in postings[c]:
                dots[j] += x * y
        rows.append([1.0 if v > 1.0 else -1.0 if v < -1.0 else v for v in dots])
    return rows
