import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debatesum.errors import ComputationError
from debatesum.vector_clustering import (
    ClusteringResult,
    bic_score,
    build_similarity_matrix,
    build_term_vectors,
    cosine,
    kmeans,
    pca_fit_transform,
    points_to_jsonable,
    similarity_to_jsonable,
    xmeans,
)


def blobs(rng, centers, n_per=30, sigma=0.5):
    points = np.concatenate(
        [rng.normal(loc=c, scale=sigma, size=(n_per, len(c))) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), n_per)
    return points, labels


class TestBuildTermVectors:
    def test_direct_count(self):
        vectors, excluded = build_term_vectors(
            {"s1": [("co2",), ("co2",)]}, [("co2",), ("ice",)]
        )
        assert excluded == []
        assert vectors[0].counts.tolist() == [2.0, 0.0]

    def test_zero_vector_excluded(self):
        vectors, excluded = build_term_vectors({"s1": [("methane",)]}, [("co2",)])
        assert vectors == []
        assert excluded == ["s1"]

    def test_dimension_is_vocabulary_size(self):
        vocab = [(f"term{i}",) for i in range(64)]
        vectors, _ = build_term_vectors({"s1": [("term3",)], "s2": [("term10",)]}, vocab)
        assert all(v.counts.shape == (64,) for v in vectors)


class TestCosine:
    def test_collinear(self):
        assert cosine(np.array([1, 2, 2]), np.array([2, 4, 4])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1, 0]), np.array([0, 1])) == 0.0

    def test_half(self):
        assert cosine(np.array([1, 1, 0]), np.array([1, 0, 1])) == pytest.approx(0.5)

    def test_zero_vector_rejected(self):
        with pytest.raises(ComputationError):
            cosine(np.zeros(3), np.ones(3))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ComputationError):
            cosine(np.ones(2), np.ones(3))


class TestSimilarityMatrix:
    def vectors(self, rows):
        from debatesum.vector_clustering import SentenceVector

        return [SentenceVector(f"s{i}", np.array(r, dtype=float)) for i, r in enumerate(rows)]

    def test_identical_pair(self):
        m = build_similarity_matrix(self.vectors([[1, 2], [1, 2]]))
        assert np.allclose(m.values, [[1, 1], [1, 1]])

    def test_orthogonal_pair(self):
        m = build_similarity_matrix(self.vectors([[1, 0], [0, 1]]))
        assert np.allclose(m.values, [[1, 0], [0, 1]])

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 5, size=(5, 7)).astype(float)
        rows[rows.sum(axis=1) == 0, 0] = 1.0
        m = build_similarity_matrix(self.vectors(rows))
        for i in range(5):
            for j in range(5):
                u, v = rows[i], rows[j]
                expected = (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
                assert m.values[i, j] == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 4, size=(8, 5)).astype(float) + 0.0
        rows[rows.sum(axis=1) == 0, 0] = 1.0
        m = build_similarity_matrix(self.vectors(rows))
        assert np.array_equal(m.values, m.values.T)
        assert np.all(m.values >= 0.0) and np.all(m.values <= 1.0)
        assert np.allclose(np.diag(m.values), 1.0)

    def test_fewer_than_two_rejected(self):
        with pytest.raises(ComputationError):
            build_similarity_matrix(self.vectors([[1, 2]]))

    def test_dump_schema(self):
        m = build_similarity_matrix(self.vectors([[1, 0], [0, 1], [1, 1]]))
        doc = similarity_to_jsonable(m)
        assert set(doc) == {"n", "labels", "values"}
        assert doc["n"] == 3
        assert doc["labels"] == ["s0", "s1", "s2"]
        assert len(doc["values"]) == 3 and len(doc["values"][0]) == 3
        points = points_to_jsonable(m.labels, np.zeros((3, 2)))
        assert set(points) == {"n", "labels", "values"}
        assert points["values"] == [[0.0, 0.0]] * 3


class TestPca:
    def test_rank_one_data(self):
        x = np.linspace(0, 1, 20)
        points = np.c_[x, 2 * x]
        model, reduced = pca_fit_transform(points, variance_target=0.5)
        assert model.explained_variance[0] / model.explained_variance.sum() == pytest.approx(1.0)
        assert reduced.shape[1] == 2  # floor of two components

    def test_full_variance_reconstruction(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((30, 5))
        model, reduced = pca_fit_transform(points, variance_target=1.0)
        assert np.allclose(model.reconstruct(reduced), points, atol=1e-9)

    def test_explained_proportions_two_one(self):
        # points constructed with sample covariance exactly diag(2, 1)
        rng = np.random.default_rng(0)
        n = 50
        x = rng.standard_normal(n)
        x = (x - x.mean()) / x.std(ddof=1)
        y = rng.standard_normal(n)
        y -= y.mean()
        y -= (y @ x / (x @ x)) * x
        y = (y - y.mean()) / y.std(ddof=1)
        points = np.c_[x * np.sqrt(2.0), y]
        model, _ = pca_fit_transform(points, variance_target=1.0)
        proportions = model.explained_variance / model.explained_variance.sum()
        assert proportions == pytest.approx([2 / 3, 1 / 3], abs=1e-9)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((40, 6))
        model, _ = pca_fit_transform(points, variance_target=1.0)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(model.components.shape[0]), atol=1e-9)

    def test_total_variance_equals_covariance_trace(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((25, 4)) * np.array([3.0, 1.0, 0.5, 0.1])
        model, _ = pca_fit_transform(points, variance_target=1.0)
        trace = np.trace(np.cov(points.T, ddof=1))
        assert model.explained_variance.sum() == pytest.approx(trace, abs=1e-9)

    def test_degenerate_identical_points(self):
        points = np.ones((5, 3))
        model, reduced = pca_fit_transform(points)
        assert model.degenerate
        assert model.components.shape == (0, 3)
        assert reduced.shape == (5, 0)

    def test_explained_variance_nonincreasing(self):
        rng = np.random.default_rng(6)
        points = rng.standard_normal((30, 5))
        model, _ = pca_fit_transform(points, variance_target=1.0)
        ev = model.explained_variance
        assert np.all(ev[:-1] >= ev[1:] - 1e-12)
        assert np.all(ev >= 0.0)

    def test_variance_target_prefix_rule(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((60, 6)) * np.array([10.0, 5.0, 2.0, 1.0, 0.5, 0.1])
        model, reduced = pca_fit_transform(base, variance_target=0.9)
        ratios = np.cumsum(model.explained_variance) / np.trace(np.cov(base.T, ddof=1))
        assert ratios[-1] >= 0.9 - 1e-9
        if model.components.shape[0] > 2:
            assert ratios[-2] < 0.9


class TestKmeans:
    def test_k_equals_n(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((6, 2))
        result = kmeans(points, k=6, seed=0)
        assert sorted(result.assignments.tolist()) == list(range(6))
        assert result.distortion_history[-1] == pytest.approx(0.0, abs=1e-12)

    def test_k_one_centroid_is_mean(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((20, 3))
        result = kmeans(points, k=1, seed=0)
        assert np.allclose(result.centroids[0], points.mean(axis=0))

    def test_recovers_planted_blobs(self):
        rng = np.random.default_rng(3)
        points, labels = blobs(rng, [(0, 0), (20, 20)], n_per=40, sigma=0.5)
        result = kmeans(points, k=2, seed=7)
        # recovered partition equals the planted one (up to cluster renaming)
        first = result.assignments[labels == 0]
        second = result.assignments[labels == 1]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_monotone_descent(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((120, 4))
        for seed in range(5):
            result = kmeans(points, k=6, seed=seed)
            history = result.distortion_history
            for earlier, later in zip(history, history[1:]):
                assert later <= earlier + 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((50, 3))
        a = kmeans(points, k=4, seed=11)
        b = kmeans(points, k=4, seed=11)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.bic == b.bic

    def test_every_cluster_nonempty(self):
        rng = np.random.default_rng(6)
        points = np.vstack([np.zeros((30, 2)), np.ones((2, 2))])
        result = kmeans(points, k=4, seed=0)
        assert set(result.assignments.tolist()) == set(range(4))

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ComputationError):
            kmeans(np.zeros((3, 2)), k=4, seed=0)


class TestBic:
    def test_pure_function(self):
        rng = np.random.default_rng(7)
        points = rng.standard_normal((40, 2))
        result = kmeans(points, k=3, seed=0)
        assert bic_score(points, result) == bic_score(points, result)

    def test_two_blobs_prefer_k2(self):
        rng = np.random.default_rng(8)
        points, _ = blobs(rng, [(0, 0), (15, 15)], n_per=50, sigma=1.0)
        bic1 = bic_score(points, kmeans(points, k=1, seed=0))
        bic2 = bic_score(points, kmeans(points, k=2, seed=0))
        assert bic2 > bic1

    def test_single_blob_prefers_k1(self):
        rng = np.random.default_rng(9)
        points = rng.normal(size=(100, 2))
        bic1 = bic_score(points, kmeans(points, k=1, seed=0))
        bic2 = bic_score(points, kmeans(points, k=2, seed=0))
        assert bic1 > bic2

    def test_n_equals_k_rejected(self):
        points = np.arange(6, dtype=float).reshape(3, 2)
        result = kmeans(points, k=3, seed=0)
        with pytest.raises(ComputationError):
            bic_score(points, result)

    def test_zero_variance_rejected(self):
        points = np.ones((10, 2))
        result = ClusteringResult(
            k=1,
            assignments=np.zeros(10, dtype=int),
            centroids=np.ones((1, 2)),
            bic=float("nan"),
            iterations=0,
            seed=0,
        )
        with pytest.raises(ComputationError):
            bic_score(points, result)


class TestXmeans:
    def test_bounds_force_k(self):
        rng = np.random.default_rng(10)
        points = rng.standard_normal((30, 2))
        result = xmeans(points, k_min=3, k_max=3, seed=0)
        assert result.k == 3

    def test_identical_points_stay_one_cluster(self):
        points = np.ones((20, 2))
        result = xmeans(points, k_min=1, k_max=5, seed=0)
        assert result.k == 1

    def test_three_planted_blobs_recovered(self):
        rng = np.random.default_rng(12)
        points, _ = blobs(rng, [(0, 0), (30, 0), (0, 30)], n_per=40, sigma=1.0)
        result = xmeans(points, k_min=1, k_max=10, seed=3)
        assert result.k == 3

    def test_k_within_bounds(self):
        rng = np.random.default_rng(13)
        points = rng.standard_normal((60, 3))
        for seed in range(5):
            result = xmeans(points, k_min=2, k_max=6, seed=seed)
            assert 2 <= result.k <= 6

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(14)
        points, _ = blobs(rng, [(0, 0), (10, 10)], n_per=25, sigma=1.0)
        a = xmeans(points, k_min=1, k_max=8, seed=21)
        b = xmeans(points, k_min=1, k_max=8, seed=21)
        assert a.k == b.k
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.bic == b.bic
        assert a.distortion_history == b.distortion_history

    def test_bad_bounds_rejected(self):
        with pytest.raises(ComputationError):
            xmeans(np.zeros((5, 2)), k_min=3, k_max=2, seed=0)
        with pytest.raises(ComputationError):
            xmeans(np.zeros((5, 2)), k_min=1, k_max=9, seed=0)


@st.composite
def duplicated_rows(draw):
    """Distinct small-integer rows, each repeated 1-5 times, in shuffled order.
    Returns (points, group) where group[i] names row i's distinct row."""
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=8, unique=True))
    copies = draw(st.lists(st.integers(1, 5), min_size=len(rows), max_size=len(rows)))
    group = [g for g, c in enumerate(copies) for _ in range(c)]
    group = draw(st.permutations(group))
    return np.array([rows[g] for g in group], dtype=float), np.array(group)


class TestXmeansDuplicates:
    @settings(max_examples=50, deadline=None, database=None)
    @given(data=duplicated_rows(), seed=st.integers(0, 2**16), k_min=st.integers(1, 3))
    def test_identical_rows_share_a_cluster(self, data, seed, k_min):
        """Copies of a row always land in one cluster, no cluster is empty and
        k never exceeds the distinct count.

        Deliberately not checked: that duplicating every point leaves the
        partition unchanged. Doubling n raises the BIC's (p/2) log n penalty
        and the weight behind each split, so a correct weighted BIC may split
        differently."""
        points, group = data
        n, distinct = len(points), len(set(group.tolist()))
        k_min = min(k_min, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = xmeans(points, k_min=k_min, k_max=min(8, n), seed=seed)
        for g in set(group.tolist()):
            assert len(set(result.assignments[group == g].tolist())) == 1
        assert set(result.assignments.tolist()) == set(range(result.k))
        assert result.k <= distinct
        assert result.centroids.shape == (result.k, points.shape[1])

    def test_collapse_keeps_first_occurrence_order(self):
        from debatesum.vector_clustering import _collapse

        points = np.array([[2.0, 0.0], [1.0, 1.0], [2.0, -0.0], [0.0, 5.0], [1.0, 1.0]])
        distinct, weights, inverse = _collapse(points)
        assert distinct.tolist() == [[2.0, 0.0], [1.0, 1.0], [0.0, 5.0]]
        assert weights.tolist() == [2.0, 2.0, 1.0]
        assert inverse.tolist() == [0, 1, 0, 2, 1]
        unique_rows = np.arange(12.0).reshape(6, 2)
        distinct, weights, _ = _collapse(unique_rows)
        assert np.array_equal(distinct, unique_rows) and weights.tolist() == [1.0] * 6
