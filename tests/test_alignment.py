import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debatesum.alignment import _bag_cosine, align_clusters, label_vector
from debatesum.annotate import SynonymTable
from debatesum.errors import ComputationError


CO2_TABLE = SynonymTable([("co2", "carbon dioxide")])


class TestLabelVector:
    def test_synonym_enrichment(self):
        assert label_vector("co2", CO2_TABLE) == {"co2": 1, "carbon": 1, "dioxide": 1}

    def test_no_synonyms_own_tokens_only(self):
        assert label_vector("sea ice", SynonymTable()) == {"sea": 1, "ice": 1}

    def test_synonym_connected_labels_have_identical_vectors(self):
        a = label_vector("co2", CO2_TABLE)
        b = label_vector("carbon dioxide", CO2_TABLE)
        assert a == b


class TestAlignClusters:
    def test_synonym_pair_aligns_at_similarity_one(self):
        agree = {"a1": "co2"}
        disagree = {"d1": "carbon dioxide"}
        pairs, dropped = align_clusters(agree, disagree, CO2_TABLE, threshold=0.6)
        assert len(pairs) == 1
        assert pairs[0]["similarity"] == pytest.approx(1.0)
        assert pairs[0]["label"] == "co2"  # display label from the agree side
        assert dropped == []

    def test_disjoint_labels_both_dropped(self):
        agree = {"a1": "ice"}
        disagree = {"d1": "economy"}
        pairs, dropped = align_clusters(agree, disagree, SynonymTable(), threshold=0.1)
        assert pairs == []
        assert dropped == ["a1", "d1"]  # agree side first

    def test_identical_labels_align(self):
        agree = {"a1": "sea ice"}
        disagree = {"d1": "sea ice"}
        pairs, _ = align_clusters(agree, disagree, SynonymTable(), threshold=0.6)
        assert pairs[0]["similarity"] == pytest.approx(1.0)

    def test_empty_side_drops_everything(self):
        agree = {"a1": "ice"}
        pairs, dropped = align_clusters(agree, {}, SynonymTable(), threshold=0.5)
        assert pairs == []
        assert dropped == ["a1"]

    def test_one_to_one(self):
        agree = {f"a{i}": "shared term" for i in range(3)}
        disagree = {f"d{i}": "shared term" for i in range(2)}
        pairs, dropped = align_clusters(agree, disagree, SynonymTable(), threshold=0.5)
        ids = [p["agree_cluster_id"] for p in pairs] + [p["disagree_cluster_id"] for p in pairs]
        assert len(ids) == len(set(ids))
        assert len(pairs) == 2
        assert len(dropped) == 1

    def test_greedy_takes_best_similarity_first(self):
        # a1 matches d1 perfectly; a2 overlaps d1 partially but must settle for d2
        table = SynonymTable()
        agree = {"a1": "sea ice", "a2": "sea level"}
        disagree = {"d1": "sea ice", "d2": "sea level rise"}
        pairs, _ = align_clusters(agree, disagree, table, threshold=0.3)
        match = {p["agree_cluster_id"]: p["disagree_cluster_id"] for p in pairs}
        assert match == {"a1": "d1", "a2": "d2"}

    def test_every_pair_meets_threshold(self):
        rng = random.Random(3)
        words = ["ice", "sea", "co2", "tax", "heat", "coral", "wind"]
        agree = {f"a{i}": " ".join(rng.sample(words, 2)) for i in range(5)}
        disagree = {f"d{i}": " ".join(rng.sample(words, 2)) for i in range(5)}
        pairs, dropped = align_clusters(agree, disagree, SynonymTable(), threshold=0.7)
        for p in pairs:
            assert p["similarity"] >= 0.7
        # dropped clusters have no remaining candidate at the threshold
        matched = {p["agree_cluster_id"] for p in pairs} | {p["disagree_cluster_id"] for p in pairs}
        vectors = {cid: label_vector(label, SynonymTable()) for cid, label in {**agree, **disagree}.items()}

        def cos(u, v):
            import math

            dot = sum(c * v.get(t, 0) for t, c in u.items())
            nu = math.sqrt(sum(c * c for c in u.values()))
            nv = math.sqrt(sum(c * c for c in v.values()))
            return dot / (nu * nv) if nu and nv else 0.0

        for cid in dropped:
            others = disagree if cid in agree else agree
            for other in others:
                if other not in matched:
                    assert cos(vectors[cid], vectors[other]) < 0.7

    def test_permutation_invariance(self):
        rng = random.Random(11)
        words = ["ice", "sea", "co2", "tax", "heat"]
        agree = {f"a{i}": " ".join(rng.sample(words, 2)) for i in range(4)}
        disagree = {f"d{i}": " ".join(rng.sample(words, 2)) for i in range(4)}
        reference, _ = align_clusters(agree, disagree, SynonymTable(), threshold=0.4)
        for _ in range(6):
            shuffled_a = list(agree.items())
            shuffled_d = list(disagree.items())
            rng.shuffle(shuffled_a)
            rng.shuffle(shuffled_d)
            pairs, _ = align_clusters(dict(shuffled_a), dict(shuffled_d), SynonymTable(), threshold=0.4)
            assert pairs == reference

    def test_bad_threshold_rejected(self):
        with pytest.raises(ComputationError):
            align_clusters({}, {}, SynonymTable(), threshold=0.0)


# --- the pairwise loop that label-pair scoring replaced, kept as the oracle --


def oracle_align(agree, disagree, table, threshold):
    vectors = {cid: label_vector(label, table) for cid, label in [*agree.items(), *disagree.items()]}
    candidates = []
    for a in agree:
        for d in disagree:
            similarity = _bag_cosine(vectors[a], vectors[d])
            if similarity >= threshold:
                candidates.append((similarity, a, d))
    candidates.sort(key=lambda c: (-c[0], agree[c[1]], disagree[c[2]], c[1], c[2]))
    used: set = set()
    pairs = []
    for similarity, a, d in candidates:
        if a not in used and d not in used:
            used.update((a, d))
            pairs.append({"label": agree[a], "agree_cluster_id": a,
                          "disagree_cluster_id": d, "similarity": similarity})
    return pairs, [cid for cid in [*agree, *disagree] if cid not in used]


LABELS = st.sampled_from(["ice", "sea ice", "co2", "carbon dioxide", "carbon tax", "tax", "heat"])
SYNONYM_TABLES = st.sampled_from([
    SynonymTable(),
    CO2_TABLE,
    SynonymTable([("co2", "carbon dioxide"), ("tax", "carbon tax"),
                  ("ice", "heat")]),
])


@settings(max_examples=200, deadline=None, database=None)
@given(
    # few labels for many clusters, so clusters share labels, as in the pipeline
    agree_labels=st.lists(LABELS, max_size=8),
    disagree_labels=st.lists(LABELS, max_size=8),
    table=SYNONYM_TABLES,
    threshold=st.sampled_from([0.3, 0.5, 0.6, 1.0]),
    seed=st.integers(0, 3),
)
def test_label_pair_alignment_equals_the_pairwise_loop(
    agree_labels, disagree_labels, table, threshold, seed
):
    agree = {f"a{i}": label for i, label in enumerate(agree_labels)}
    disagree = list({f"d{i}": label for i, label in enumerate(disagree_labels)}.items())
    random.Random(seed).shuffle(disagree)  # cluster ids out of order
    disagree = dict(disagree)
    assert align_clusters(agree, disagree, table, threshold) == oracle_align(
        agree, disagree, table, threshold
    )
