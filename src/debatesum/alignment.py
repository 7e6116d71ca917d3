"""One-to-one alignment of agree-side and disagree-side clusters by label.

Each label is expanded into a bag of tokens enriched with the tokens of its
synonym class, and cross-side pairs are scored by cosine over those bags.
Matching is greedy in descending similarity with deterministic tie-breaks;
clusters left without a partner at the threshold are reported as dropped.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .annotate import SynonymTable, Term, term_text
from .corpus import Side


class LabeledCluster(NamedTuple):
    cluster_id: str
    side: Side
    label: Term


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


def _by_label(clusters: Sequence[LabeledCluster]) -> dict[Term, list[LabeledCluster]]:
    out: dict[Term, list[LabeledCluster]] = {}
    for c in clusters:
        out.setdefault(tuple(c.label), []).append(c)
    return out


def align_clusters(
    agree: Sequence[LabeledCluster],
    disagree: Sequence[LabeledCluster],
    table: SynonymTable,
    threshold: float = 0.6,
) -> tuple[list[dict], list[LabeledCluster]]:
    """Greedy maximum-similarity matching between the two sides.

    Returns (pairs, dropped), each pair its ``alignment.json`` entry: the
    display label (the agree side's), both cluster ids and the similarity.
    Every pair scores >= threshold; each cluster appears in at most one pair;
    the result does not depend on input order (ties resolve by label text,
    then cluster id).
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"alignment threshold must be in (0, 1], got {threshold}")
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
    candidates = []
    for agree_label, agree_clusters in agree_by_label.items():
        sharing = dict.fromkeys(d for token in vectors[agree_label] for d in holders.get(token, ()))
        for disagree_label in sharing:
            similarity = _bag_cosine(vectors[agree_label], vectors[disagree_label])
            if similarity >= threshold:
                candidates += [
                    (similarity, a, d) for a in agree_clusters for d in disagree_by_label[disagree_label]
                ]
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
    pairs = []
    for similarity, a, d in candidates:
        if a.cluster_id in used or d.cluster_id in used:
            continue
        used.update((a.cluster_id, d.cluster_id))
        pairs.append({"label": term_text(a.label), "agree_cluster_id": a.cluster_id,
                      "disagree_cluster_id": d.cluster_id, "similarity": similarity})
    dropped = [c for c in [*agree, *disagree] if c.cluster_id not in used]
    return pairs, dropped
