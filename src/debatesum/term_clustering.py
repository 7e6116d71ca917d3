"""Soft clustering of salient sentences by shared ontological term.

Every distinct term found in a side's salient sentences opens one cluster;
a sentence carrying k distinct terms lands in k clusters. Sentences without
any term are kept in a separate "unclustered" list rather than dropped.
Clusters whose labels share a synonym class are merged afterwards. A
clustering is a dict from each cluster's label to its member sentence ids.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .annotate import SynonymTable, Term, canonical_label


def cluster_by_shared_term(
    terms_by_sentence: Mapping[str, Sequence[Term]],
) -> tuple[dict[Term, list[str]], list[str]]:
    """Group one side's sentences by the terms they contain.

    ``terms_by_sentence`` maps sentence id to that sentence's term
    annotations, in sentence order. Returns ({label: member ids in input
    order, deduplicated}, with labels in text order; unclustered sentence
    ids in input order).
    """
    members: dict[Term, list[str]] = {}
    unclustered: list[str] = []
    for sentence_id, terms in terms_by_sentence.items():
        distinct = dict.fromkeys(terms)
        if not distinct:
            unclustered.append(sentence_id)
        for term in distinct:
            members.setdefault(term, []).append(sentence_id)
    return dict(sorted(members.items())), unclustered


def merge_synonymous_clusters(
    clusters: Mapping[Term, Sequence[str]],
    table: SynonymTable,
) -> dict[Term, list[str]]:
    """Union clusters whose labels are synonym-connected.

    The merged cluster takes the canonical (lexicographically smallest)
    label of the class; members are deduplicated, preserving first-seen
    order across the merged inputs taken in label text order. Labels come
    out in text order. Order-independent: shuffling the input yields the
    same result.
    """
    grouped: dict[Term, list[Term]] = {}
    for label in clusters:
        grouped.setdefault(canonical_label(label, table), []).append(label)
    return {
        canonical: list(dict.fromkeys(sid for label in sorted(labels) for sid in clusters[label]))
        for canonical, labels in sorted(grouped.items())
    }
