import random

from debatesum.annotate import SynonymTable
from debatesum.term_clustering import cluster_by_shared_term, merge_synonymous_clusters


def members_by_label(clusters):
    return {label: set(members) for label, members in clusters.items()}


class TestClusterBySharedTerm:
    def test_soft_clustering(self):
        terms = {
            "s1": ["co2"],
            "s2": ["co2", "ice"],
            "s3": ["ice"],
        }
        clusters, unclustered = cluster_by_shared_term(terms)
        assert members_by_label(clusters) == {"co2": {"s1", "s2"}, "ice": {"s2", "s3"}}
        assert unclustered == []

    def test_termless_sentence_goes_unclustered(self):
        clusters, unclustered = cluster_by_shared_term({"s1": []})
        assert clusters == {}
        assert unclustered == ["s1"]

    def test_one_cluster_per_distinct_term(self):
        terms = {f"s{i}": [f"term{i}"] for i in range(39)}
        clusters, _ = cluster_by_shared_term(terms)
        assert len(clusters) == 39
        assert list(clusters) == sorted(clusters)  # labels in text order

    def test_duplicate_term_in_sentence_counts_once(self):
        clusters, _ = cluster_by_shared_term({"s1": ["co2", "co2"]})
        assert members_by_label(clusters) == {"co2": {"s1"}}

    def test_union_of_members_plus_unclustered_covers_input(self):
        rng = random.Random(99)
        vocab = [f"t{i}" for i in range(6)]
        terms = {
            f"s{i}": [rng.choice(vocab) for _ in range(rng.randint(0, 3))] for i in range(40)
        }
        clusters, unclustered = cluster_by_shared_term(terms)
        covered = set(unclustered)
        for members in clusters.values():
            covered.update(members)
        assert covered == set(terms)


class TestMergeSynonymousClusters:
    def test_synonym_pair_merges(self):
        table = SynonymTable([("co2", "carbon dioxide")])
        clusters, _ = cluster_by_shared_term(
            {"s1": ["co2"], "s2": ["carbon dioxide"]}
        )
        merged = merge_synonymous_clusters(clusters, table)
        assert members_by_label(merged) == {"carbon dioxide": {"s1", "s2"}}

    def test_empty_table_is_noop(self):
        clusters, _ = cluster_by_shared_term({"s1": ["a"], "s2": ["b"]})
        merged = merge_synonymous_clusters(clusters, SynonymTable())
        assert members_by_label(merged) == members_by_label(clusters)

    def test_disjoint_labels_preserve_count(self):
        table = SynonymTable([("x", "y")])
        clusters, _ = cluster_by_shared_term({"s1": ["a"], "s2": ["b"]})
        assert len(merge_synonymous_clusters(clusters, table)) == 2

    def test_permutation_invariance(self):
        rng = random.Random(5)
        table = SynonymTable([("a", "b"), ("c", "d"), ("d", "e")])
        vocab = list("abcdefg")
        terms = {
            f"s{i}": [rng.choice(vocab) for _ in range(rng.randint(1, 3))] for i in range(30)
        }
        clusters, _ = cluster_by_shared_term(terms)
        reference = members_by_label(merge_synonymous_clusters(clusters, table))
        for _ in range(10):
            items = list(clusters.items())
            rng.shuffle(items)
            assert members_by_label(merge_synonymous_clusters(dict(items), table)) == reference

    def test_no_two_merged_labels_synonym_connected(self):
        table = SynonymTable([("a", "b"), ("b", "c")])
        clusters, _ = cluster_by_shared_term(
            {"s1": ["a"], "s2": ["b"], "s3": ["c"], "s4": ["d"]}
        )
        merged = merge_synonymous_clusters(clusters, table)
        labels = list(merged)
        for x in labels:
            for y in labels:
                if x != y:
                    assert x not in table.equivalence_class(y)

    def test_members_deduplicated_after_merge(self):
        table = SynonymTable([("a", "b")])
        clusters, _ = cluster_by_shared_term({"s1": ["a", "b"]})
        merged = merge_synonymous_clusters(clusters, table)
        assert merged == {"a": ["s1"]}
