"""One-to-one alignment of agree-side and disagree-side clusters by label.

Each label is expanded into a bag of tokens enriched with the tokens of its
synonym class, and cross-side pairs are scored by cosine over those bags.
Matching is greedy in descending similarity with deterministic tie-breaks;
clusters left without a partner at the threshold are reported as dropped.
"""

from __future__ import annotations

import math
from typing import Mapping

from .annotate import SynonymTable, Term
from .errors import ComputationError


def label_vector(label: Term, table: SynonymTable) -> dict[str, int]:
    """Unit-count token bag of the label and every synonym in its class."""
    terms = sorted(table.equivalence_class(label))
    return dict.fromkeys((token for term in terms for token in term.split()), 1)


def _bag_cosine(a: dict[str, int], b: dict[str, int]) -> float:
    if not a or not b:
        return 0.0
    dot = sum(c * b[t] for t, c in a.items() if t in b)
    norm = math.sqrt(sum(c * c for c in a.values())) * math.sqrt(sum(c * c for c in b.values()))
    return min(dot / norm, 1.0) if norm else 0.0


def _by_label(labels: Mapping[str, Term]) -> dict[Term, list[str]]:
    out: dict[Term, list[str]] = {}
    for cluster_id, label in labels.items():
        out.setdefault(label, []).append(cluster_id)
    return out


def align_clusters(
    agree: Mapping[str, Term],
    disagree: Mapping[str, Term],
    table: SynonymTable,
    threshold: float = 0.6,
) -> tuple[list[dict], list[str]]:
    """Greedy maximum-similarity matching between the two sides, each given
    as cluster id -> label.

    Returns (pairs, dropped). Each pair is its ``alignment.json`` entry: the
    display label (the agree side's), both cluster ids and the similarity.
    ``dropped`` lists the ids in no pair, agree side first, each side in
    input order. Every pair scores >= threshold; each cluster appears in at
    most one pair; the pairs do not depend on input order (ties resolve by
    label text, then cluster id).
    """
    if not 0.0 < threshold <= 1.0:
        raise ComputationError(f"alignment threshold must be in (0, 1], got {threshold}")
    # clusters share labels: score each distinct label pair once, and expand
    # only the pairs at or above the threshold into cluster pairs. Labels
    # that share no token score 0, below every threshold, so each agree label
    # is scored only against the disagree labels found by its tokens.
    agree_by_label = _by_label(agree)
    disagree_by_label = _by_label(disagree)
    vectors = {label: label_vector(label, table) for label in {*agree_by_label, *disagree_by_label}}
    holders: dict[str, list[Term]] = {}
    for label in disagree_by_label:
        for token in vectors[label]:
            holders.setdefault(token, []).append(label)
    candidates = []  # (-similarity, agree label, disagree label, agree id, disagree id)
    for agree_label, agree_ids in agree_by_label.items():
        sharing = dict.fromkeys(d for token in vectors[agree_label] for d in holders.get(token, ()))
        for disagree_label in sharing:
            similarity = _bag_cosine(vectors[agree_label], vectors[disagree_label])
            if similarity >= threshold:
                candidates += [(-similarity, agree_label, disagree_label, a, d)
                               for a in agree_ids for d in disagree_by_label[disagree_label]]
    candidates.sort()
    used: set[str] = set()
    pairs = []
    for negated, label, _, a, d in candidates:
        if a in used or d in used:
            continue
        used.update((a, d))
        pairs.append({"label": label, "agree_cluster_id": a, "disagree_cluster_id": d,
                      "similarity": -negated})
    return pairs, [cluster_id for cluster_id in [*agree, *disagree] if cluster_id not in used]
