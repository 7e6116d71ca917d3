import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debatesum.annotate import SynonymTable
from debatesum.errors import ComputationError
from debatesum.labeling import (
    ContingencyCounts,
    UNLABELED,
    contingency_counts,
    mi_label,
    mutual_information,
    shared_term_label,
    term_index,
    tfidf_labels,
)
from debatesum.term_clustering import merge_synonymous_clusters


def mi_entropy_oracle(n11, n10, n01, n00):
    """Independent route: I = H(U) + H(C) - H(U, C), all in bits."""

    def entropy(ps):
        return -sum(p * math.log2(p) for p in ps if p > 0)

    n = n11 + n10 + n01 + n00
    h_u = entropy([(n11 + n10) / n, (n01 + n00) / n])
    h_c = entropy([(n11 + n01) / n, (n10 + n00) / n])
    h_uc = entropy([n11 / n, n10 / n, n01 / n, n00 / n])
    return h_u + h_c - h_uc


class TestMutualInformation:
    def test_independent_term_is_zero(self):
        assert mutual_information(ContingencyCounts(25, 25, 25, 25)) == 0.0

    def test_perfectly_predictive_balanced_term_is_one_bit(self):
        assert mutual_information(ContingencyCounts(n11=2, n10=0, n01=0, n00=2)) == pytest.approx(
            1.0
        )

    def test_worked_example(self):
        # frozen from an independent entropy-identity evaluation
        value = mutual_information(ContingencyCounts(n11=3, n10=1, n01=2, n00=4))
        assert value == pytest.approx(0.12451124978365313, abs=1e-12)
        assert value == pytest.approx(0.1245, abs=1e-4)

    def test_all_zero_rejected(self):
        with pytest.raises(ComputationError):
            mutual_information(ContingencyCounts(0, 0, 0, 0))

    def test_matches_entropy_oracle_on_random_tables(self):
        rng = random.Random(42)
        for _ in range(2000):
            cells = [rng.randint(0, 30) for _ in range(4)]
            if sum(cells) == 0:
                cells[0] = 1
            ours = mutual_information(ContingencyCounts(*cells))
            assert ours == pytest.approx(mi_entropy_oracle(*cells), abs=1e-10)

    def test_swap_invariance(self):
        rng = random.Random(7)
        for _ in range(200):
            n11, n10, n01, n00 = (rng.randint(0, 20) for _ in range(4))
            if n11 + n10 + n01 + n00 == 0:
                n11 = 1
            a = mutual_information(ContingencyCounts(n11, n10, n01, n00))
            b = mutual_information(ContingencyCounts(n00, n01, n10, n11))
            assert a == pytest.approx(b, abs=1e-12)

    def test_scaling_invariance(self):
        base = ContingencyCounts(3, 1, 2, 4)
        reference = mutual_information(base)
        for factor in (2, 3, 10):
            scaled = ContingencyCounts(
                base.n11 * factor, base.n10 * factor, base.n01 * factor, base.n00 * factor
            )
            assert mutual_information(scaled) == pytest.approx(reference, abs=1e-12)

    def test_zero_iff_rank_one(self):
        rng = random.Random(13)
        for _ in range(300):
            n11, n10, n01, n00 = (rng.randint(0, 12) for _ in range(4))
            if n11 + n10 + n01 + n00 == 0:
                continue
            value = mutual_information(ContingencyCounts(n11, n10, n01, n00))
            rank_one = n11 * n00 == n10 * n01  # determinant zero = independence
            assert (value < 1e-12) == rank_one


class TestSharedTermLabel:
    def test_identity(self):
        candidate = shared_term_label("ice")
        assert candidate.term == "ice"
        assert candidate.score == 1.0
        assert candidate.method == "shared"

    def test_merged_cluster_keeps_canonical_label(self):
        table = SynonymTable([("co2", "carbon dioxide")])
        merged = merge_synonymous_clusters({"co2": ["s1"], "carbon dioxide": ["s2"]}, table)
        (label,) = merged
        assert shared_term_label(label).term == "carbon dioxide"

    def test_empty_label_rejected(self):
        with pytest.raises(ComputationError):
            shared_term_label("")


class TestTfidfLabels:
    def test_worked_example(self):
        c1 = Counter({"warming": 2, "ice": 1})
        c2 = Counter({"warming": 1, "co2": 1})
        labels = tfidf_labels([c1, c2])
        assert labels[0].term == "ice"
        assert labels[0].score == pytest.approx(math.log(2.0))
        assert labels[1].term == "co2"

    def test_single_cluster_tie_breaks_by_tf(self):
        labels = tfidf_labels([Counter({"a": 3, "b": 1})])
        # all idf = 0; highest tf wins the tie
        assert labels[0].term == "a"
        assert labels[0].score == 0.0

    def test_ubiquitous_term_never_selected(self):
        clusters = [
            Counter({"everywhere": 5, "rare1": 1}),
            Counter({"everywhere": 5, "rare2": 1}),
        ]
        labels = tfidf_labels(clusters)
        assert labels[0].term == "rare1"
        assert labels[1].term == "rare2"

    def test_empty_cluster_gets_sentinel(self):
        labels = tfidf_labels([Counter(), Counter({"x": 1})])
        assert labels[0].term == UNLABELED

    def test_order_invariance(self):
        clusters = [
            Counter({"a": 2, "b": 1}),
            Counter({"b": 2, "c": 1}),
            Counter({"c": 3}),
        ]
        forward = tfidf_labels(clusters)
        backward = tfidf_labels(list(reversed(clusters)))
        assert [l.term for l in forward] == [l.term for l in reversed(backward)]

    def test_lexicographic_final_tie_break(self):
        labels = tfidf_labels([Counter({"zebra": 1, "apple": 1})])
        assert labels[0].term == "apple"


class TestMiLabel:
    def test_dominant_term_wins(self):
        clusters = [["s1", "s2"], ["s3", "s4"]]
        terms = {
            "s1": ["ice"],
            "s2": ["ice"],
            "s3": ["co2"],
            "s4": ["co2"],
        }
        candidate = mi_label(clusters[0], term_index(clusters, terms))
        assert candidate.term == "ice"
        assert candidate.method == "mi"

    def test_uninformative_term_never_beats_associated(self):
        clusters = [["s1", "s2"], ["s3", "s4"]]
        terms = {
            "s1": ["ice", "noise"],
            "s2": ["ice"],
            "s3": ["noise", "co2"],
            "s4": ["co2", "noise"],
        }
        candidate = mi_label(clusters[0], term_index(clusters, terms))
        assert candidate.term == "ice"

    def test_empty_candidates_sentinel(self):
        clusters = [["s1"], ["s2"]]
        candidate = mi_label(["s1"], term_index(clusters, {"s1": [], "s2": ["x"]}))
        assert candidate.term == UNLABELED

    def test_universe_duplication_invariance(self):
        clusters = [["s1", "s2"], ["s3", "s4", "s5"]]
        terms = {
            "s1": ["ice"],
            "s2": ["ice", "dust"],
            "s3": ["co2"],
            "s4": ["dust"],
            "s5": ["co2", "ice"],
        }
        base = mi_label(clusters[0], term_index(clusters, terms))
        # duplicate the whole universe: every sentence twice under fresh ids
        dup_terms = dict(terms)
        for sid, ts in terms.items():
            dup_terms[sid + "dup"] = ts
        dup_clusters = [c + [sid + "dup" for sid in c] for c in clusters]
        doubled = mi_label(dup_clusters[0], term_index(dup_clusters, dup_terms))
        assert doubled.term == base.term
        assert doubled.score == pytest.approx(base.score, abs=1e-12)

    def test_target_outside_universe_rejected(self):
        with pytest.raises(ComputationError):
            mi_label(["sX"], term_index([["s1"], ["s2"]], {"s1": ["a"], "s2": ["b"]}))

    def test_planted_label_recovery_small(self):
        rng = random.Random(7)
        for _ in range(10):
            clusters, terms, planted = planted_corpus(rng, n_clusters=4, size=12)
            for i, cluster in enumerate(clusters):
                got = mi_label(cluster, term_index(clusters, terms))
                assert got.term == planted[i]


def planted_corpus(rng, n_clusters=5, size=15, coverage=0.9, leakage=0.05, noise_terms=20):
    """Clusters with one planted label each: coverage inside, leakage outside,
    plus uniform noise terms everywhere."""
    clusters = []
    terms = {}
    planted = [f"planted{i}" for i in range(n_clusters)]
    noise = [f"noise{i}" for i in range(noise_terms)]
    sid = 0
    for i in range(n_clusters):
        members = []
        for _ in range(size):
            name = f"s{sid}"
            sid += 1
            members.append(name)
            ts = []
            if rng.random() < coverage:
                ts.append(planted[i])
            for j in range(n_clusters):
                if j != i and rng.random() < leakage:
                    ts.append(planted[j])
            for term in noise:
                if rng.random() < 0.10:
                    ts.append(term)
            terms[name] = ts
        clusters.append(members)
    return clusters, terms, planted


class TestContingencyCounts:
    def test_tabulation(self):
        index = term_index(
            [["s1", "s2", "s3", "s4"]],
            {"s1": ["ice"], "s2": [], "s3": ["ice"], "s4": []},
        )
        counts = contingency_counts("ice", {"s1", "s2"}, index)
        assert (counts.n11, counts.n01, counts.n10, counts.n00) == (1, 1, 1, 1)
        assert counts.n == 4
        assert counts.n1dot == 2 and counts.ndot1 == 2


# --- the per-table loop that TermIndex replaced, kept as the oracle ----------


def oracle_contingency_counts(term, target_members, universe, terms_by_sentence):
    target = set(target_members)
    n11 = n10 = n01 = n00 = 0
    for sid in universe:
        present = term in terms_by_sentence.get(sid, ())
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


def oracle_mi_label(target, all_clusters, terms_by_sentence):
    """(term, score hex, runner-up) with every table tabulated over the universe."""
    universe = list(dict.fromkeys(sid for cluster in all_clusters for sid in cluster))
    candidates = {t for sid in target for t in terms_by_sentence.get(sid, ())}
    if not candidates:
        return UNLABELED, float.hex(0.0), None
    scored = []
    for term in candidates:
        counts = oracle_contingency_counts(term, target, universe, terms_by_sentence)
        scored.append((mutual_information(counts), float(counts.n11), term))
    ranked = sorted(scored, key=lambda e: (-e[0], -e[1], e[2]))
    runner = None if len(ranked) < 2 else (ranked[1][2], float.hex(ranked[1][0]))
    return ranked[0][2], float.hex(ranked[0][0]), runner


SENTENCES = [f"s{i}" for i in range(10)]
TERMS = st.sampled_from(["ice", "sea level", "co2", "tax", "carbon tax"])


@settings(max_examples=200, deadline=None, database=None)
@given(
    # soft clusters: a sentence may sit in several clusters, as term clusters do
    clusters=st.lists(st.lists(st.sampled_from(SENTENCES), min_size=1, max_size=6), min_size=1,
                      max_size=5),
    # some sentences have no entry at all, some an empty or repeated term list
    terms=st.dictionaries(st.sampled_from(SENTENCES), st.lists(TERMS, max_size=4)),
)
def test_mi_label_from_the_index_equals_the_per_table_loop(clusters, terms):
    index = term_index(clusters, terms)
    for cluster in clusters:
        got = mi_label(cluster, index)
        runner = None if got.runner_up is None else (got.runner_up[0], float.hex(got.runner_up[1]))
        assert (got.term, float.hex(got.score), runner) == oracle_mi_label(cluster, clusters, terms)
        for term in {t for ts in terms.values() for t in ts}:
            assert contingency_counts(term, set(cluster), index) == oracle_contingency_counts(
                term, cluster, list(index.terms), terms
            )
