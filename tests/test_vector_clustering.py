import math
import random
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import bic_score, compensated_sum, kmeans

from debatesum import vector_clustering
from debatesum.errors import ComputationError
from debatesum.vector_clustering import (
    ClusteringResult,
    _draw,
    _kmeans_plusplus_init,
    _lloyd,
    build_similarity_matrix,
    build_term_vectors,
    pca_fit_transform,
    xmeans,
)


def blobs(rng, centers, n_per=30, sigma=0.5):
    points = np.concatenate(
        [rng.normal(loc=c, scale=sigma, size=(n_per, len(c))) for c in centers]
    )
    labels = np.repeat(np.arange(len(centers)), n_per)
    return points.tolist(), labels


class TestBuildTermVectors:
    def test_direct_count(self):
        ids, counts, excluded = build_term_vectors(
            {"s1": ["co2", "co2"]}, ["co2", "ice"]
        )
        assert ids == ["s1"] and excluded == []
        assert counts == [[2.0, 0.0]]

    def test_zero_vector_excluded(self):
        ids, counts, excluded = build_term_vectors({"s1": ["methane"]}, ["co2"])
        assert ids == [] and counts == []
        assert excluded == ["s1"]

    def test_dimension_is_vocabulary_size(self):
        vocab = [f"term{i}" for i in range(64)]
        ids, counts, _ = build_term_vectors({"s1": ["term3"], "s2": ["term10"]}, vocab)
        assert ids == ["s1", "s2"]
        assert [len(row) for row in counts] == [64, 64]


class TestSimilarityMatrix:
    def vectors(self, rows):
        return [[float(x) for x in row] for row in rows]

    def test_identical_pair(self):
        m = build_similarity_matrix(self.vectors([[1, 2], [1, 2]]))
        assert np.allclose(m, [[1, 1], [1, 1]])

    def test_orthogonal_pair(self):
        m = build_similarity_matrix(self.vectors([[1, 0], [0, 1]]))
        assert np.allclose(m, [[1, 0], [0, 1]])

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 5, size=(5, 7)).astype(float)
        rows[rows.sum(axis=1) == 0, 0] = 1.0
        m = build_similarity_matrix(self.vectors(rows))
        for i in range(5):
            for j in range(5):
                u, v = rows[i], rows[j]
                expected = (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
                assert m[i][j] == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 4, size=(8, 5)).astype(float) + 0.0
        rows[rows.sum(axis=1) == 0, 0] = 1.0
        m = build_similarity_matrix(self.vectors(rows))
        assert m == [list(column) for column in zip(*m)]
        assert all(0.0 <= x <= 1.0 for row in m for x in row)
        assert np.allclose([m[i][i] for i in range(len(m))], 1.0)

    def test_fewer_than_two_rejected(self):
        with pytest.raises(ComputationError):
            build_similarity_matrix(self.vectors([[1, 2]]))

    def test_zero_vector_rejected_by_row_index(self):
        with pytest.raises(ComputationError, match=r"rows \[1\]"):
            build_similarity_matrix(self.vectors([[1, 2], [0, 0]]))


def double_loop_similarities(rows):
    """Cosine similarities by a plain double loop, and the unit vectors: a
    math.fsum norm per row, and a dot product that adds every coordinate's
    product of two unit vectors in coordinate order from 0.0, clipped to
    [-1, 1]; 1.0 on the diagonal alone."""
    units = []
    for row in rows:
        norm = math.sqrt(math.fsum(x * x for x in row))
        units.append([x / norm for x in row])
    matrix = []
    for i, u in enumerate(units):
        similarities = []
        for j, v in enumerate(units):
            dot = 0.0
            for x, y in zip(u, v):
                dot += x * y
            similarities.append(1.0 if i == j else min(1.0, max(-1.0, dot)))
        matrix.append(similarities)
    return matrix, units


COUNT_ROWS = st.integers(1, 10).flatmap(lambda dim: st.lists(
    st.lists(st.integers(0, 9), min_size=dim, max_size=dim).filter(any), min_size=2, max_size=12))


@settings(max_examples=50, deadline=None, database=None)
@given(rows=COUNT_ROWS)
@example(rows=[[2, 1, 1, 1], [0, 1, 0, 0], [2, 1, 1, 1]])  # the copies' similarity is 1 - 3 * 2**-53
def test_similarity_matrix_bitwise_equals_the_double_loop(rows):
    rows = [[float(x) for x in row] for row in rows]
    matrix = build_similarity_matrix(rows)
    expected, units = double_loop_similarities(rows)
    assert [list(map(float.hex, row)) for row in matrix] == [
        list(map(float.hex, row)) for row in expected]
    assert matrix.unit == [[(c, x) for c, x in enumerate(unit) if x] for unit in units]


class TestPca:
    def test_rank_one_data(self):
        x = np.linspace(0, 1, 20)
        points = np.c_[x, 2 * x].tolist()
        model, reduced = pca_fit_transform(points, variance_target=0.5)
        ev = model.explained_variance
        assert ev[0] / math.fsum(ev) == pytest.approx(1.0)
        assert {len(row) for row in reduced} == {2}  # floor of two components

    def test_full_variance_reconstruction(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((30, 5)).tolist()
        model, reduced = pca_fit_transform(points, variance_target=1.0)
        rebuilt = np.array(reduced) @ np.array(model.components) + model.mean
        assert np.allclose(rebuilt, points, atol=1e-9)

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
        points = np.c_[x * np.sqrt(2.0), y].tolist()
        model, _ = pca_fit_transform(points, variance_target=1.0)
        proportions = [v / math.fsum(model.explained_variance) for v in model.explained_variance]
        assert proportions == pytest.approx([2 / 3, 1 / 3], abs=1e-9)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((40, 6)).tolist()
        model, _ = pca_fit_transform(points, variance_target=1.0)
        components = np.array(model.components)
        gram = components @ components.T
        assert np.allclose(gram, np.eye(len(components)), atol=1e-9)

    def test_total_variance_equals_covariance_trace(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((25, 4)) * np.array([3.0, 1.0, 0.5, 0.1])
        model, _ = pca_fit_transform(points.tolist(), variance_target=1.0)
        trace = np.trace(np.cov(points.T, ddof=1))
        assert math.fsum(model.explained_variance) == pytest.approx(trace, abs=1e-9)

    def test_degenerate_identical_points(self):
        points = [[1.0, 1.0, 1.0]] * 5
        model, reduced = pca_fit_transform(points)
        assert model.degenerate
        assert model.components == [] and len(model.mean) == 3
        assert reduced == [[]] * 5

    def test_explained_variance_nonincreasing(self):
        rng = np.random.default_rng(6)
        points = rng.standard_normal((30, 5)).tolist()
        model, _ = pca_fit_transform(points, variance_target=1.0)
        ev = model.explained_variance
        assert all(a >= b - 1e-12 for a, b in zip(ev, ev[1:]))
        assert all(v >= 0.0 for v in ev)

    def test_variance_target_prefix_rule(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((60, 6)) * np.array([10.0, 5.0, 2.0, 1.0, 0.5, 0.1])
        model, reduced = pca_fit_transform(base.tolist(), variance_target=0.9)
        ratios = np.cumsum(model.explained_variance) / np.trace(np.cov(base.T, ddof=1))
        assert ratios[-1] >= 0.9 - 1e-9
        if len(model.components) > 2:
            assert ratios[-2] < 0.9


@pytest.mark.parametrize("copy", [False, True], ids=["matrix", "plain_list"])
@pytest.mark.parametrize("sentences", [6, 40], ids=["sentence_space", "term_space"])
def test_pca_of_a_similarity_matrix_matches_lapack(sentences, copy):
    """PCA of similarity rows runs on the rows' nonzeros (6 sentences, 8
    terms) or in term-space coordinates (40 sentences), and a plain list copy
    of the matrix is centered and decomposed as given: each way its
    variances are LAPACK's, and the kept coordinates hold every inner product
    of the centered rows."""
    rng = np.random.default_rng(sentences)
    counts = rng.integers(0, 3, size=(sentences, 8)).astype(float)
    counts[counts.sum(axis=1) == 0, 0] = 1.0
    similarity = build_similarity_matrix(counts.tolist())
    model, reduced = pca_fit_transform(list(similarity) if copy else similarity, variance_target=1.0)
    centered = np.array(similarity) - np.mean(similarity, axis=0)
    singular = np.linalg.svd(centered, compute_uv=False)
    k = len(model.explained_variance)
    assert model.explained_variance == pytest.approx(singular[:k] ** 2 / (sentences - 1), abs=1e-12)
    assert np.allclose(np.array(reduced) @ np.array(reduced).T, centered @ centered.T, atol=1e-10)
    components = np.array(model.components)
    assert np.allclose(components @ components.T, np.eye(k), atol=1e-10)
    assert np.allclose(np.array(reduced) @ components + model.mean, similarity, atol=1e-10)


@pytest.mark.parametrize("seed", [3, 17, 18])
def test_pca_converges_on_rank_deficient_rows(seed):
    """60 points of rank 5 in 60 dimensions: 55 variances are zero up to
    rounding. QL counts an off-diagonal entry as zero against the norm of
    the tridiagonal matrix; counted against its two diagonal neighbours
    alone, the noise between those zeros did not converge on these seeds.
    The variances are LAPACK's."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((60, 5)) @ rng.standard_normal((5, 60))
    model, reduced = pca_fit_transform(points.tolist(), variance_target=1.0)
    singular = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    variance = singular**2 / 59
    k = len(model.explained_variance)
    assert k >= 5
    assert model.explained_variance == pytest.approx(variance[:k], abs=1e-9 * variance[0])
    centered = points - points.mean(axis=0)
    assert np.allclose(np.array(reduced) @ np.array(model.components), centered, atol=1e-9)


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

    def test_reseed_cycle_stops_with_the_max_iter_result(self):
        # two empty clusters take a zero point each and lose it again to the tied
        # first centroid: every pass repeats the last, so Lloyd stops at once and
        # returns what running all 300 passes returns
        points = np.vstack([np.zeros((30, 2)), np.ones((2, 2))])
        result = kmeans(points, k=4, seed=0)
        assert result.iterations < 300
        assert result.assignments.tolist() == [2, 3] + [0] * 28 + [1, 1]
        assert np.bincount(result.assignments).tolist() == [28, 2, 1, 1]
        assert result.centroids.tolist() == [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
        assert math.isnan(result.bic)
        # X-means' own Lloyd, seeded with the same draws, stops in the same place
        plain = points.tolist()
        weights = [1.0] * len(plain)
        seeds = _kmeans_plusplus_init(plain, weights, 4, random.Random(0))
        assignments, centroids, iterations = _lloyd(plain, weights, seeds, 300)
        assert iterations == result.iterations
        assert assignments == result.assignments.tolist()
        assert centroids == result.centroids.tolist()

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
        )
        with pytest.raises(ComputationError):
            bic_score(points, result)


class TestXmeans:
    def test_bounds_force_k(self):
        rng = np.random.default_rng(10)
        points = rng.standard_normal((30, 2)).tolist()
        result = xmeans(points, k_min=3, k_max=3, seed=0)
        assert result.k == 3

    def test_identical_points_stay_one_cluster(self):
        points = [[1.0, 1.0]] * 20
        result = xmeans(points, k_min=1, k_max=5, seed=0)
        assert result.k == 1

    def test_three_planted_blobs_recovered(self):
        rng = np.random.default_rng(12)
        points, _ = blobs(rng, [(0, 0), (30, 0), (0, 30)], n_per=40, sigma=1.0)
        result = xmeans(points, k_min=1, k_max=10, seed=3)
        assert result.k == 3

    def test_k_within_bounds(self):
        rng = np.random.default_rng(13)
        points = rng.standard_normal((60, 3)).tolist()
        for seed in range(5):
            result = xmeans(points, k_min=2, k_max=6, seed=seed)
            assert 2 <= result.k <= 6

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(14)
        points, _ = blobs(rng, [(0, 0), (10, 10)], n_per=25, sigma=1.0)
        a = xmeans(points, k_min=1, k_max=8, seed=21)
        b = xmeans(points, k_min=1, k_max=8, seed=21)
        assert a.k == b.k
        assert a.assignments == b.assignments
        assert a.centroids == b.centroids
        assert a.bic == b.bic
        assert a.distortion_history == b.distortion_history

    def test_bad_bounds_rejected(self):
        with pytest.raises(ComputationError):
            xmeans([[0.0, 0.0]] * 5, k_min=3, k_max=2, seed=0)
        with pytest.raises(ComputationError):
            xmeans([[0.0, 0.0]] * 5, k_min=1, k_max=9, seed=0)

    @pytest.mark.parametrize("seed", [-1, -7, -(2**70)])
    def test_negative_seed_rejected(self, seed):
        # random.Random(-s) draws what random.Random(s) draws
        with pytest.raises(ComputationError, match="seed must be nonnegative"):
            xmeans([[0.0], [1.0], [5.0]], k_min=1, k_max=3, seed=seed)


class FixedDraw:
    """Stands in for ``random.Random``: ``random()`` always returns ``value``."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


EXTREME_DRAWS = [0.0, 1.0 - 2.0**-53]  # the least and the greatest random() returns


@settings(deadline=None, database=None)
@given(
    mass=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e300)), min_size=1, max_size=64),
    trailing_zeros=st.integers(0, 4),
    uniform=st.sampled_from(EXTREME_DRAWS),
)
def test_a_draw_stays_below_n_and_off_zero_mass(mass, trailing_zeros, uniform):
    mass = mass + [0.0] * trailing_zeros
    index = _draw(FixedDraw(uniform), mass)
    assert 0 <= index < len(mass)
    if any(mass):
        assert mass[index] > 0.0


@pytest.mark.parametrize("n", [1, 3, 2**16 + 1])
@pytest.mark.parametrize("value", [0.0, 2.5])
def test_an_equal_mass_draw_spans_every_index(n, value):
    assert [_draw(FixedDraw(u), [value] * n) for u in EXTREME_DRAWS] == [0, n - 1]


@st.composite
def duplicated_rows(draw):
    """Distinct small-integer rows, each repeated 1-5 times, in shuffled order.
    Returns (points, group) where group[i] names row i's distinct row."""
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=8, unique=True))
    copies = draw(st.lists(st.integers(1, 5), min_size=len(rows), max_size=len(rows)))
    group = [g for g, c in enumerate(copies) for _ in range(c)]
    group = draw(st.permutations(group))
    return [[float(x) for x in rows[g]] for g in group], group


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
        n, distinct = len(points), len(set(group))
        k_min = min(k_min, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = xmeans(points, k_min=k_min, k_max=min(8, n), seed=seed)
        for g in set(group):
            assert len({a for a, h in zip(result.assignments, group) if h == g}) == 1
        assert set(result.assignments) == set(range(result.k))
        assert result.k <= distinct
        assert [len(c) for c in result.centroids] == [len(points[0])] * result.k

    def test_collapse_keeps_first_occurrence_order(self):
        from debatesum.vector_clustering import _collapse

        points = [[2.0, 0.0], [1.0, 1.0], [2.0, -0.0], [0.0, 5.0], [1.0, 1.0]]
        distinct, weights, inverse = _collapse(points)
        assert distinct == [[2.0, 0.0], [1.0, 1.0], [0.0, 5.0]]
        assert weights == [2.0, 2.0, 1.0]
        assert inverse == [0, 1, 0, 2, 1]
        unique_rows = np.arange(12.0).reshape(6, 2).tolist()
        distinct, weights, _ = _collapse(unique_rows)
        assert distinct == unique_rows and weights == [1.0] * 6


def test_results_do_not_depend_on_version_specific_float_sums(monkeypatch):
    """Builtin sum() of floats compensates from Python 3.12 on, and CPython has
    changed how math.dist and math.hypot round: PCA and X-means add with
    math.fsum or left to right, so with ``sum`` shadowed by the compensated
    version and math.dist and math.hypot raising, every result stays."""
    rng = np.random.default_rng(15)
    points = (rng.standard_normal((40, 4)) * [3.0, 1.0, 0.5, 0.1]).tolist()
    counts = rng.integers(0, 3, size=(30, 8)).astype(float)
    counts[counts.sum(axis=1) == 0, 0] = 1.0

    def run():
        return repr((
            pca_fit_transform(points),
            pca_fit_transform(build_similarity_matrix(counts.tolist())),  # term space
            pca_fit_transform(build_similarity_matrix(counts[:6].tolist())),  # sentence space
            xmeans(points, k_min=1, k_max=8, seed=3),
        ))

    before = run()

    def refuse(*args):
        raise AssertionError("a float sum whose rounding depends on the Python version")

    monkeypatch.setattr(vector_clustering, "sum", compensated_sum, raising=False)
    monkeypatch.setattr(math, "dist", refuse)
    monkeypatch.setattr(math, "hypot", refuse)
    assert run() == before


@pytest.mark.parametrize("offset", [0.0, 1e8, 1e9, 1e10])
def test_assignment_holds_far_from_the_origin(offset):
    """Three blobs of spread 0.5, shifted by ``offset`` in every coordinate:
    each point goes to the centroid numpy's squared distances pick, with 2
    and with 3 centroids, and X-means finds the 3 blobs wherever they lie.
    Ranked by ``|c_j|² - |c_0|²`` from the two norms, points 1e9 and 1e10
    from the origin went to a farther centroid."""
    rng = np.random.default_rng(8)
    points, labels = blobs(rng, [(0, 0, 0), (6, 0, 0), (0, 6, 0)], n_per=40)
    shifted = np.array(points) + offset
    centers = np.array([[0.0, 0.0, 0.0], [6.0, 0.0, 0.0], [0.0, 6.0, 0.0]]) + offset
    for centroids in (centers[:2], centers, centers[::-1]):
        expected = oracles._assign(shifted, centroids).tolist()
        assert vector_clustering._assign(shifted.tolist(), centroids.tolist()) == expected
    result = xmeans(shifted.tolist(), k_min=1, k_max=6, seed=0)
    assert result.k == 3
    assert len({(a, b) for a, b in zip(result.assignments, labels)}) == 3


def test_a_400_sentence_side_clusters_in_a_fraction_of_cubic_pca():
    """One side of 400 salient sentences, each with 1-3 of 64 terms. PCA of the
    similarity rows as given is cubic in the sentence count in plain floats;
    the similarity matrix of unit term vectors has rank at most the 64 terms,
    so PCA solves its eigenproblem in term space, and the whole side (term
    vectors, similarity, PCA, X-means) clusters within 5 times the time that
    PCA of the rows as given takes for the side's first 100 sentences (2.5
    times, measured): cubic PCA would take 64 times that at 400. Both are
    plain-float work timed in one process, so the bound holds on a slower
    host too; each takes its quicker of two runs."""
    rng = np.random.default_rng(400)
    vocabulary = [f"term{i:02d}" for i in range(64)]
    terms = {
        f"s{i}": [vocabulary[j] for j in rng.choice(64, size=int(rng.integers(1, 4)))]
        for i in range(400)
    }
    elapsed, reference = [], []
    for _ in range(2):
        start = time.perf_counter()
        ids, counts, _ = build_term_vectors(terms, vocabulary)
        model, reduced = pca_fit_transform(build_similarity_matrix(counts))
        result = xmeans(reduced, k_min=2, k_max=25, seed=0)
        elapsed.append(time.perf_counter() - start)
        first = list(build_similarity_matrix(counts[:100]))
        start = time.perf_counter()
        pca_fit_transform(first)
        reference.append(time.perf_counter() - start)
    assert len(ids) == len(result.assignments) == 400
    assert 2 <= result.k <= 25 and len(model.components) <= 64
    assert min(elapsed) < 5 * min(reference)
