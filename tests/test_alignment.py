import random

import pytest

from debatesum.alignment import LabeledCluster, align_clusters, label_vector
from debatesum.annotate import SynonymTable
from debatesum.corpus import Side


def cluster(cid, side, label):
    return LabeledCluster(cluster_id=cid, side=side, label=tuple(label.split()))


CO2_TABLE = SynonymTable([(("co2",), ("carbon", "dioxide"))])


class TestLabelVector:
    def test_synonym_enrichment(self):
        assert label_vector(("co2",), CO2_TABLE) == {"co2": 1, "carbon": 1, "dioxide": 1}

    def test_no_synonyms_own_tokens_only(self):
        assert label_vector(("sea", "ice"), SynonymTable()) == {"sea": 1, "ice": 1}

    def test_synonym_connected_labels_have_identical_vectors(self):
        a = label_vector(("co2",), CO2_TABLE)
        b = label_vector(("carbon", "dioxide"), CO2_TABLE)
        assert a == b


class TestAlignClusters:
    def test_synonym_pair_aligns_at_similarity_one(self):
        agree = [cluster("a1", Side.AGREE, "co2")]
        disagree = [cluster("d1", Side.DISAGREE, "carbon dioxide")]
        pairs, dropped = align_clusters(agree, disagree, CO2_TABLE, threshold=0.6)
        assert len(pairs) == 1
        assert pairs[0].similarity == pytest.approx(1.0)
        assert pairs[0].label == "co2"  # display label from the agree side
        assert dropped == []

    def test_disjoint_labels_both_dropped(self):
        agree = [cluster("a1", Side.AGREE, "ice")]
        disagree = [cluster("d1", Side.DISAGREE, "economy")]
        pairs, dropped = align_clusters(agree, disagree, SynonymTable(), threshold=0.1)
        assert pairs == []
        assert {c.cluster_id for c in dropped} == {"a1", "d1"}

    def test_identical_labels_align(self):
        agree = [cluster("a1", Side.AGREE, "sea ice")]
        disagree = [cluster("d1", Side.DISAGREE, "sea ice")]
        pairs, _ = align_clusters(agree, disagree, SynonymTable(), threshold=0.6)
        assert pairs[0].similarity == pytest.approx(1.0)

    def test_empty_side_drops_everything(self):
        agree = [cluster("a1", Side.AGREE, "ice")]
        pairs, dropped = align_clusters(agree, [], SynonymTable(), threshold=0.5)
        assert pairs == []
        assert [c.cluster_id for c in dropped] == ["a1"]

    def test_one_to_one(self):
        agree = [cluster(f"a{i}", Side.AGREE, "shared term") for i in range(3)]
        disagree = [cluster(f"d{i}", Side.DISAGREE, "shared term") for i in range(2)]
        pairs, dropped = align_clusters(agree, disagree, SynonymTable(), threshold=0.5)
        ids = [p.agree_cluster_id for p in pairs] + [p.disagree_cluster_id for p in pairs]
        assert len(ids) == len(set(ids))
        assert len(pairs) == 2
        assert len(dropped) == 1

    def test_greedy_takes_best_similarity_first(self):
        # a1 matches d1 perfectly; a2 overlaps d1 partially but must settle for d2
        table = SynonymTable()
        agree = [cluster("a1", Side.AGREE, "sea ice"), cluster("a2", Side.AGREE, "sea level")]
        disagree = [
            cluster("d1", Side.DISAGREE, "sea ice"),
            cluster("d2", Side.DISAGREE, "sea level rise"),
        ]
        pairs, _ = align_clusters(agree, disagree, table, threshold=0.3)
        match = {p.agree_cluster_id: p.disagree_cluster_id for p in pairs}
        assert match == {"a1": "d1", "a2": "d2"}

    def test_every_pair_meets_threshold(self):
        rng = random.Random(3)
        words = ["ice", "sea", "co2", "tax", "heat", "coral", "wind"]
        agree = [
            cluster(f"a{i}", Side.AGREE, " ".join(rng.sample(words, 2))) for i in range(5)
        ]
        disagree = [
            cluster(f"d{i}", Side.DISAGREE, " ".join(rng.sample(words, 2))) for i in range(5)
        ]
        pairs, dropped = align_clusters(agree, disagree, SynonymTable(), threshold=0.7)
        for p in pairs:
            assert p.similarity >= 0.7
        # dropped clusters have no remaining candidate at the threshold
        matched = {p.agree_cluster_id for p in pairs} | {p.disagree_cluster_id for p in pairs}
        vectors = {c.cluster_id: label_vector(c.label, SynonymTable()) for c in agree + disagree}

        def cos(u, v):
            import math

            dot = sum(c * v.get(t, 0) for t, c in u.items())
            nu = math.sqrt(sum(c * c for c in u.values()))
            nv = math.sqrt(sum(c * c for c in v.values()))
            return dot / (nu * nv) if nu and nv else 0.0

        for c in dropped:
            others = disagree if c.side is Side.AGREE else agree
            for other in others:
                if other.cluster_id not in matched:
                    assert cos(vectors[c.cluster_id], vectors[other.cluster_id]) < 0.7

    def test_permutation_invariance(self):
        rng = random.Random(11)
        words = ["ice", "sea", "co2", "tax", "heat"]
        agree = [cluster(f"a{i}", Side.AGREE, " ".join(rng.sample(words, 2))) for i in range(4)]
        disagree = [
            cluster(f"d{i}", Side.DISAGREE, " ".join(rng.sample(words, 2))) for i in range(4)
        ]
        reference, _ = align_clusters(agree, disagree, SynonymTable(), threshold=0.4)
        for _ in range(6):
            shuffled_a = agree[:]
            shuffled_d = disagree[:]
            rng.shuffle(shuffled_a)
            rng.shuffle(shuffled_d)
            pairs, _ = align_clusters(shuffled_a, shuffled_d, SynonymTable(), threshold=0.4)
            assert pairs == reference

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            align_clusters([], [], SynonymTable(), threshold=0.0)
