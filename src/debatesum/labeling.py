"""Cluster labeling by shared term, tf*idf, and Mutual Information.

Mutual information of term presence vs cluster membership is computed from a
2x2 contingency table of sentence counts:

    I = sum over cells of (N_cell/N) * log2(N * N_cell / (row_marg * col_marg))

with the 0 * log(0) = 0 convention for empty cells and a clamp to >= 0
against floating-point noise. Log base 2, so scores are in bits. The tf*idf
baseline scores each candidate term by (occurrences in the cluster) *
ln(cluster count / clusters containing the term).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Mapping, Sequence

from .annotate import UNLABELED, Term, term_text
from .errors import ComputationError


class LabelMethod(str, Enum):
    SHARED_TERM = "shared"
    TFIDF = "tfidf"
    MI = "mi"


@dataclass(frozen=True)
class ContingencyCounts:
    """Sentence counts for one (term, cluster) pair.

    n11 contains-term and in-cluster, n10 contains-term outside, n01 lacks
    the term inside, n00 lacks it outside.
    """

    n11: int
    n10: int
    n01: int
    n00: int

    @property
    def n(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00

    @property
    def n1dot(self) -> int:  # term present
        return self.n11 + self.n10

    @property
    def n0dot(self) -> int:  # term absent
        return self.n01 + self.n00

    @property
    def ndot1(self) -> int:  # in cluster
        return self.n11 + self.n01

    @property
    def ndot0(self) -> int:  # outside cluster
        return self.n10 + self.n00


@dataclass(frozen=True)
class LabelCandidate:
    term: Term
    score: float
    method: LabelMethod
    runner_up: tuple[Term, float] | None = None


def mutual_information(counts: ContingencyCounts) -> float:
    """MI in bits between term presence and cluster membership."""
    n = counts.n
    if n < 1:
        raise ComputationError("mutual information undefined on an all-zero table")
    cells = (
        (counts.n11, counts.n1dot, counts.ndot1),
        (counts.n01, counts.n0dot, counts.ndot1),
        (counts.n10, counts.n1dot, counts.ndot0),
        (counts.n00, counts.n0dot, counts.ndot0),
    )
    total = 0.0
    for cell, row, col in cells:
        if cell == 0:
            continue  # 0 * log2(...) := 0
        total += (cell / n) * math.log2(n * cell / (row * col))
    return max(total, 0.0)


def shared_term_label(label: Term) -> LabelCandidate:
    """The defining term of a shared-term cluster, score 1."""
    if not label:
        raise ComputationError(
            "shared-term labeling needs a shared-term cluster; use MI labeling "
            "for clusters without a common defining term"
        )
    return LabelCandidate(term=tuple(label), score=1.0, method=LabelMethod.SHARED_TERM)


def _best_two(scored: list[tuple[float, float, Term]]) -> tuple[Term, float, tuple[Term, float] | None]:
    # scored entries are (score, tiebreak, term); pick max score, then higher
    # tiebreak (tf or n11), then lexicographically smaller term
    ranked = sorted(scored, key=lambda e: (-e[0], -e[1], term_text(e[2])))
    best = ranked[0]
    runner = (ranked[1][2], ranked[1][0]) if len(ranked) > 1 else None
    return best[2], best[0], runner


def tfidf_labels(term_counts: Sequence[Counter]) -> list[LabelCandidate]:
    """One tf*idf label per cluster.

    ``term_counts[i]`` is the term multiset of cluster i (occurrences summed
    over member sentences, stopwords already removed where applicable).
    tf is the in-cluster count; idf = ln(C / cf) over cluster frequencies.
    """
    if not term_counts:
        raise ComputationError("tf*idf labeling needs at least one cluster")
    n_clusters = len(term_counts)
    cluster_frequency: Counter = Counter()
    for counts in term_counts:
        cluster_frequency.update(set(counts))

    labels: list[LabelCandidate] = []
    for counts in term_counts:
        if not counts:
            labels.append(LabelCandidate(UNLABELED, 0.0, LabelMethod.TFIDF))
            continue
        scored = [
            (tf * math.log(n_clusters / cluster_frequency[term]), float(tf), tuple(term))
            for term, tf in counts.items()
        ]
        term, score, runner = _best_two(scored)
        labels.append(LabelCandidate(term, score, LabelMethod.TFIDF, runner))
    return labels


def contingency_counts(
    term: Term,
    target_members: Collection[str],
    universe: Collection[str],
    terms_by_sentence: Mapping[str, Collection[Term]],
) -> ContingencyCounts:
    """Tabulate term presence vs membership over the sentence universe."""
    term = tuple(term)
    target = set(target_members)
    n11 = n10 = n01 = n00 = 0
    for sid in universe:
        present = term in {tuple(t) for t in terms_by_sentence.get(sid, ())}
        if sid in target:
            if present:
                n11 += 1
            else:
                n01 += 1
        elif present:
            n10 += 1
        else:
            n00 += 1
    return ContingencyCounts(n11=n11, n10=n10, n01=n01, n00=n00)


def mi_label(
    target_cluster: Collection[str],
    all_clusters: Sequence[Collection[str]],
    terms_by_sentence: Mapping[str, Collection[Term]],
) -> LabelCandidate:
    """Highest-MI candidate term for one cluster.

    The universe is every sentence appearing in any cluster (counted once);
    the class is membership in the target cluster. Candidates are the terms
    occurring in the target cluster's sentences. Ties break by higher
    in-cluster presence count, then lexicographically.
    """
    universe: list[str] = []
    seen: set[str] = set()
    for cluster in all_clusters:
        for sid in cluster:
            if sid not in seen:
                seen.add(sid)
                universe.append(sid)
    target = [sid for sid in target_cluster]
    if not set(target) <= seen:
        raise ComputationError("target cluster must be one of the provided clusters")

    candidates = {tuple(t) for sid in target for t in terms_by_sentence.get(sid, ())}
    if not candidates:
        return LabelCandidate(UNLABELED, 0.0, LabelMethod.MI)

    scored = []
    for term in candidates:
        counts = contingency_counts(term, target, universe, terms_by_sentence)
        scored.append((mutual_information(counts), float(counts.n11), term))
    term, score, runner = _best_two(scored)
    return LabelCandidate(term, score, LabelMethod.MI, runner)
