"""The cosine distances of the cosine silhouette, in plain floats.

A norm adds its squares, and a dot product its products, in ascending
coordinate order, which no BLAS kernel promises: no kernel decides their
bits. ``evalkit.silhouette`` imports this module only for a cosine
silhouette, so an x-means run never compiles it.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import compress, repeat
from operator import add, itemgetter, mul, sub, truediv
from typing import Sequence

from ._pairwise import point_rows
from .errors import ComputationError


def cosine_distances(points: Sequence) -> list[Sequence[float]]:
    """The full matrix of ``1 - clip(u . v, -1, 1)`` between the unit vectors
    of ``points`` (``_pairwise.point_rows``); a zero or non-finite vector is
    an error.

    Each row is first scaled by the power of two nearest its largest
    magnitude, which is exact while its squares stay in the float range, and
    so moves no bit there; beyond it, the row still counts as its direction.
    A norm adds the nonzero squares in coordinate order from 0.0 (a zero
    square would leave the sum as it is), and a unit vector is the row
    divided by it. A dot product adds the products of the coordinates where
    both vectors are nonzero, in ascending coordinate order, starting from
    0.0: the posting list of each coordinate holds the distinct unit vectors
    nonzero there, so a pair that shares no coordinate stays at 0.0 and gets
    distance 1.0.
    """
    index: dict[tuple, int] = {}  # distinct row -> its number (1 == 1.0: ints and floats agree)
    of_point = [index.setdefault(tuple(row), len(index)) for row in point_rows(points)]
    units = []  # per distinct row, its unit vector's nonzero (coordinate, value)s in order
    for row in index:
        at = list(compress(range(len(row)), row))  # the nonzero coordinates
        values = [float(row[c]) for c in at]
        if not values or not all(map(math.isfinite, values)):
            raise ComputationError("cosine distance undefined for zero or non-finite vectors")
        values = list(map(math.ldexp, values, repeat(-math.frexp(max(map(abs, values)))[1])))
        norm = math.sqrt(reduce(add, map(mul, values, values), 0.0))
        units.append(list(zip(at, map(truediv, values, repeat(norm)))))
    postings: dict[int, list[tuple[int, float]]] = {}
    for i, unit in enumerate(units):
        for c, x in unit:
            postings.setdefault(c, []).append((i, x))
    pick = itemgetter(*of_point)  # n >= 2 points, so it gives a tuple
    rows = []
    for unit in units:
        dots = [0.0] * len(units)
        for c, x in unit:
            for j, y in postings[c]:
                dots[j] += x * y
        clipped = map(max, repeat(-1.0), map(min, repeat(1.0), dots))
        rows.append(pick(list(map(sub, repeat(1.0), clipped))))
    return [rows[i] for i in of_point]
