"""Soft clustering of salient sentences by shared ontological term.

Every distinct term found in a side's salient sentences opens one cluster;
a sentence carrying k distinct terms lands in k clusters. Sentences without
any term are kept in a separate "unclustered" list rather than dropped.
Clusters whose labels share a synonym class are merged afterwards.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .annotate import SynonymTable, Term, canonical_label, term_text
from .corpus import Side


class TermCluster(NamedTuple):
    label: Term
    side: Side
    members: tuple[str, ...]  # sentence ids, input order, deduplicated

    @property
    def cluster_id(self) -> str:
        return f"{self.side.value}:term:{term_text(self.label)}"


def cluster_by_shared_term(
    terms_by_sentence: Mapping[str, Sequence[Term]],
    side: Side,
) -> tuple[list[TermCluster], list[str]]:
    """Group one side's sentences by the terms they contain.

    ``terms_by_sentence`` maps sentence id to that sentence's term
    annotations, in sentence order. Returns (clusters sorted by label,
    unclustered sentence ids in input order).
    """
    members: dict[Term, list[str]] = {}
    unclustered: list[str] = []
    for sentence_id, terms in terms_by_sentence.items():
        distinct = []
        seen = set()
        for term in terms:
            term = tuple(term)
            if term not in seen:
                seen.add(term)
                distinct.append(term)
        if not distinct:
            unclustered.append(sentence_id)
            continue
        for term in distinct:
            members.setdefault(term, []).append(sentence_id)
    clusters = [
        TermCluster(label=label, side=side, members=tuple(ids))
        for label, ids in sorted(members.items(), key=lambda kv: term_text(kv[0]))
    ]
    return clusters, unclustered


def merge_synonymous_clusters(
    clusters: Sequence[TermCluster],
    table: SynonymTable,
) -> list[TermCluster]:
    """Union clusters whose labels are synonym-connected.

    The merged cluster takes the canonical (lexicographically smallest)
    label of the class; members are deduplicated, preserving first-seen
    order across the merged inputs. Order-independent: shuffling the input
    yields the same result.
    """
    grouped: dict[Term, list[TermCluster]] = {}
    for cluster in clusters:
        grouped.setdefault(canonical_label(cluster.label, table), []).append(cluster)

    merged: list[TermCluster] = []
    for canonical, group in sorted(grouped.items(), key=lambda kv: term_text(kv[0])):
        group = sorted(group, key=lambda c: term_text(c.label))
        seen: set[str] = set()
        members: list[str] = []
        for cluster in group:
            for sid in cluster.members:
                if sid not in seen:
                    seen.add(sid)
                    members.append(sid)
        merged.append(TermCluster(label=canonical, side=group[0].side, members=tuple(members)))
    return merged
