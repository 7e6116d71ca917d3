"""One-to-one alignment of agree-side and disagree-side clusters by label.

Each label is expanded into a bag of tokens enriched with the tokens of its
synonym class, and cross-side pairs are scored by cosine over those bags.
Matching is greedy in descending similarity with deterministic tie-breaks;
clusters left without a partner at the threshold are reported as dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .annotate import SynonymTable, Term, term_text
from .corpus import Side


@dataclass(frozen=True)
class LabeledCluster:
    cluster_id: str
    side: Side
    label: Term


@dataclass(frozen=True)
class AlignedPair:
    label: str  # display label, taken from the agree side
    agree_cluster_id: str
    disagree_cluster_id: str
    similarity: float


def label_vector(label: Term, table: SynonymTable) -> dict[str, int]:
    """Unit-count token bag of the label and every synonym in its class."""
    tokens: dict[str, int] = {}
    for term in sorted(table.equivalence_class(tuple(label)), key=term_text):
        for token in term:
            tokens[token] = 1
    return tokens


def _bag_cosine(a: dict[str, int], b: dict[str, int]) -> float:
    if not a or not b:
        return 0.0
    dot = sum(c * b[t] for t, c in a.items() if t in b)
    norm = math.sqrt(sum(c * c for c in a.values())) * math.sqrt(sum(c * c for c in b.values()))
    return min(dot / norm, 1.0) if norm else 0.0


def align_clusters(
    agree: Sequence[LabeledCluster],
    disagree: Sequence[LabeledCluster],
    table: SynonymTable,
    threshold: float = 0.6,
) -> tuple[list[AlignedPair], list[LabeledCluster]]:
    """Greedy maximum-similarity matching between the two sides.

    Returns (pairs, dropped). Every pair scores >= threshold; each cluster
    appears in at most one pair; the result does not depend on input order
    (ties resolve by label text, then cluster id).
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"alignment threshold must be in (0, 1], got {threshold}")
    vectors = {c.cluster_id: label_vector(c.label, table) for c in [*agree, *disagree]}
    candidates = []
    for a in agree:
        for d in disagree:
            similarity = _bag_cosine(vectors[a.cluster_id], vectors[d.cluster_id])
            if similarity >= threshold:
                candidates.append((similarity, a, d))
    candidates.sort(
        key=lambda c: (
            -c[0],
            term_text(c[1].label),
            term_text(c[2].label),
            c[1].cluster_id,
            c[2].cluster_id,
        )
    )
    used: set[str] = set()
    pairs: list[AlignedPair] = []
    for similarity, a, d in candidates:
        if a.cluster_id in used or d.cluster_id in used:
            continue
        used.update((a.cluster_id, d.cluster_id))
        pairs.append(
            AlignedPair(
                label=term_text(a.label),
                agree_cluster_id=a.cluster_id,
                disagree_cluster_id=d.cluster_id,
                similarity=similarity,
            )
        )
    dropped = [c for c in [*agree, *disagree] if c.cluster_id not in used]
    return pairs, dropped
