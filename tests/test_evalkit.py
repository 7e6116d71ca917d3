import math
import random

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from debatesum import evalkit
from debatesum.corpus import Sentence
from debatesum.errors import ComputationError
from debatesum.evalkit import (
    RougeVariant,
    SilhouetteReport,
    _mean_score,
    krippendorff_alpha,
    mann_whitney_u,
    rouge,
    rouge_batch,
    silhouette,
    skip_bigram_counts,
)

from oracles import compensated_sum, distance_matrix, numpy_rouge_batch, numpy_silhouette


# ---------------------------------------------------------------------------
# brute-force oracles, deliberately written along different routes than the
# implementations they check
# ---------------------------------------------------------------------------


def greedy_multiset_match(system_units: list, reference_units: list) -> int:
    """Count clipped matches by explicit pairing with used-flags."""
    used = [False] * len(reference_units)
    matched = 0
    for unit in system_units:
        for i, ref in enumerate(reference_units):
            if not used[i] and ref == unit:
                used[i] = True
                matched += 1
                break
    return matched


def enumerate_units(tokens: list, variant: RougeVariant) -> list:
    if variant is RougeVariant.R1:
        return [(t,) for t in tokens]
    if variant is RougeVariant.R2:
        return [tuple(tokens[i : i + 2]) for i in range(len(tokens) - 1)]
    units = [(t,) for t in tokens]
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens)):
            if j - i - 1 <= 4:
                units.append((tokens[i], tokens[j]))
    return units


def rouge_oracle(system, reference, variant):
    sys_units = enumerate_units(system, variant)
    ref_units = enumerate_units(reference, variant)
    match = greedy_multiset_match(sys_units, ref_units)
    recall = match / len(ref_units) if ref_units else 0.0
    precision = match / len(sys_units) if sys_units else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return recall, precision, f1


def skip_bigram_oracle(tokens: list, max_skip: int) -> Counter:
    """Every in-order pair at most ``max_skip`` words apart, one pair at a time."""
    counts: Counter = Counter()
    for i in range(len(tokens)):
        for j in range(i + 1, min(i + max_skip + 2, len(tokens))):
            counts[(tokens[i], tokens[j])] += 1
    return counts


def mann_whitney_pair_oracle(a, b):
    """U by direct all-pairs comparison: wins plus half-ties."""
    u_a = sum(1.0 if x > y else 0.5 if x == y else 0.0 for x in a for y in b)
    return u_a, len(a) * len(b) - u_a


class TestRouge:
    def test_identity(self):
        tokens = "the quick brown fox jumps".split()
        for variant in RougeVariant:
            score = rouge(tokens, [tokens], variant)
            assert score.recall == pytest.approx(1.0)
            assert score.precision == pytest.approx(1.0)
            assert score.f1 == pytest.approx(1.0)

    def test_disjoint(self):
        for variant in RougeVariant:
            score = rouge("a b c".split(), ["x y z".split()], variant)
            assert score.recall == 0.0
            assert score.precision == 0.0
            assert score.f1 == 0.0

    def test_worked_example(self):
        ref = "the cat sat".split()
        sys = "the cat ran".split()
        r1 = rouge(sys, [ref], RougeVariant.R1)
        assert r1.recall == pytest.approx(2 / 3)
        r2 = rouge(sys, [ref], RougeVariant.R2)
        assert r2.recall == pytest.approx(1 / 2)

    def test_empty_system(self):
        score = rouge([], ["a b".split()], RougeVariant.R1)
        assert score.recall == 0.0
        assert score.f1 == 0.0

    def test_empty_reference_list_rejected(self):
        with pytest.raises(ComputationError):
            rouge("a".split(), [], RougeVariant.R1)

    def test_skip_bigram_distance_semantics(self):
        counts = skip_bigram_counts(list("abcdefg"), max_skip=0)
        # zero skip reduces to plain bigrams
        assert set(counts) == {("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "g")}
        counts4 = skip_bigram_counts(list("abcdefg"), max_skip=4)
        assert ("a", "f") in counts4  # four words in between
        assert ("a", "g") not in counts4  # five in between: beyond the window

    def test_clipping(self):
        # "a" appears twice in system, once in reference: only one match
        score = rouge(["a", "a"], [["a", "b"]], RougeVariant.R1)
        assert score.recall == pytest.approx(0.5)
        assert score.precision == pytest.approx(0.5)

    def test_multi_reference_mean(self):
        sys = "a b".split()
        refs = [["a", "b"], ["x", "y"]]
        score = rouge(sys, refs, RougeVariant.R1)
        assert score.recall == pytest.approx(0.5)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(77)
        vocab = list("abcdefgh")
        for _ in range(300):
            sys = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
            ref = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            for variant in RougeVariant:
                score = rouge(sys, [ref], variant)
                recall, precision, f1 = rouge_oracle(sys, ref, variant)
                assert score.recall == pytest.approx(recall, abs=1e-12)
                assert score.precision == pytest.approx(precision, abs=1e-12)
                assert score.f1 == pytest.approx(f1, abs=1e-12)


    @settings(max_examples=200, deadline=None, database=None)
    @given(
        tokens=st.lists(st.sampled_from("abcd"), max_size=14),
        max_skip=st.integers(0, 6),
    )
    def test_skip_bigram_counts_match_nested_loop_oracle(self, tokens, max_skip):
        assert skip_bigram_counts(tokens, max_skip) == skip_bigram_oracle(tokens, max_skip)
        assert skip_bigram_counts(tuple(tokens), max_skip) == skip_bigram_oracle(tokens, max_skip)

    @pytest.mark.parametrize("tokens", [[], ["a"]])
    @pytest.mark.parametrize("max_skip", range(7))
    def test_skip_bigram_counts_short_inputs(self, tokens, max_skip):
        assert skip_bigram_counts(tokens, max_skip) == Counter()


# empty and one-token sequences among them
ROUGE_SEQUENCES = st.lists(st.sampled_from(("ice", "sea", "carbon", "tax", "the")), max_size=7)


@settings(max_examples=60, deadline=None, database=None)
@given(
    systems=st.lists(ROUGE_SEQUENCES, min_size=1, max_size=6),
    references=st.lists(ROUGE_SEQUENCES, min_size=1, max_size=4),
)
@example(systems=[[], ["ice"]], references=[[], ["ice"], ["sea", "ice"]])
@example(systems=[[]], references=[[]])
def test_rouge_batch_rows_equal_rouge(systems, references):
    """Each system's (variant, (recall, precision, f1)) block is ``rouge``'s
    score of it against all references, bit for bit."""
    # one sentence per sequence, each sequence the set of its sentence's id
    sentences = [Sentence(f"s{i}", i + 1, " ".join(seq), tuple(seq))
                 for i, seq in enumerate([*systems, *references])]
    batch = rouge_batch(sentences, [{s.id} for s in sentences], len(systems))
    assert [[len(scores) for scores in row] for row in batch] == [[3] * len(RougeVariant)] * len(systems)
    for system, row in zip(systems, batch):
        for variant, scores in zip(RougeVariant, row):
            expected = rouge(system, references, variant)
            assert list(map(float.hex, scores)) == [
                float.hex(expected.recall), float.hex(expected.precision), float.hex(expected.f1)
            ], variant


def hex_table(table) -> list:
    return [[list(map(float.hex, scores)) for scores in row] for row in table]


# few token types, so that tokens, bigrams and skip-bigrams repeat within a
# sequence and the clipped counts differ from set overlaps
REPEATING = st.lists(st.sampled_from(("ice", "sea", "the")), max_size=12)


@settings(max_examples=80, deadline=None, database=None)
@given(
    texts=st.lists(st.one_of(ROUGE_SEQUENCES, REPEATING), min_size=1, max_size=7),
    data=st.data(),
)
@example(texts=[[], ["ice"]], data=None)  # an empty and a one-token sentence
@example(texts=[["the", "ice", "the", "sea", "the", "ice"], ["sea", "the", "sea"]], data=None)
def test_rouge_batch_equals_the_numpy_oracle(texts, data):
    """The plain-Python table equals numpy's counts and divisions bit for bit:
    each sequence is a set of sentences, systems and references may share
    sentences, and a reference may equal a system."""
    sentences = [Sentence(f"s{i}", i + 1, " ".join(t), tuple(t)) for i, t in enumerate(texts)]
    ids = [s.id for s in sentences]
    if data is None:  # each sentence alone, then all of them, as a system and as a reference
        systems, references = [{i} for i in ids] + [set(ids)], [set(ids), {ids[-1]}]
    else:
        subsets = st.sets(st.sampled_from(ids))
        systems = data.draw(st.lists(subsets, min_size=1, max_size=5))
        references = data.draw(st.lists(st.one_of(subsets, st.sampled_from(systems)), min_size=1, max_size=3))
    sequences = [*systems, *references]
    expected = numpy_rouge_batch(sentences, sequences, len(systems)).tolist()
    assert hex_table(rouge_batch(sentences, sequences, len(systems))) == hex_table(expected)


class TestSilhouette:
    def test_worked_1d_example(self):
        report = silhouette(np.array([0.0, 0.1, 10.0, 10.1]), [0, 0, 1, 1])
        assert report.mean == pytest.approx(0.98999975, abs=1e-8)
        assert report.mean == pytest.approx(0.9900, abs=1e-4)

    def test_single_cluster_rejected(self):
        with pytest.raises(ComputationError):
            silhouette(np.zeros((4, 2)), [0, 0, 0, 0])

    def test_interleaved_distributions_near_zero(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((300, 2))
        assignments = rng.integers(0, 2, size=300)
        while len(set(assignments.tolist())) < 2:
            assignments = rng.integers(0, 2, size=300)
        report = silhouette(points, assignments)
        assert abs(report.mean) < 0.1

    def test_per_point_in_range_and_id_permutation_invariant(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((40, 3))
        assignments = rng.integers(0, 4, size=40)
        assignments[:4] = [0, 1, 2, 3]
        report = silhouette(points, assignments)
        assert all(-1.0 <= s <= 1.0 for s in report.per_point)
        relabel = {0: 3, 1: 0, 2: 2, 3: 1}
        permuted = silhouette(points, [relabel[a] for a in assignments])
        assert permuted.per_point == pytest.approx(report.per_point)
        assert permuted.mean == pytest.approx(report.mean)

    def test_singletons_score_zero(self):
        report = silhouette(np.array([[0.0], [5.0], [5.1]]), [0, 1, 1])
        assert report.per_point[0] == 0.0

    def test_mean_is_mean_of_per_point(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((30, 2))
        assignments = rng.integers(0, 3, size=30)
        assignments[:3] = [0, 1, 2]
        report = silhouette(points, assignments)
        assert report.mean == pytest.approx(sum(report.per_point) / len(report.per_point), abs=1e-12)

    def test_cosine_distance_metric(self):
        points = np.array([[1.0, 0.0], [2.0, 0.01], [0.0, 1.0], [0.01, 2.0]])
        report = silhouette(points, [0, 0, 1, 1], metric="cosine_distance")
        assert report.mean > 0.9

    def test_cosine_zero_vector_rejected(self):
        with pytest.raises(ComputationError):
            silhouette(np.array([[0.0, 0.0], [1.0, 0.0]]), [0, 1], metric="cosine_distance")


def per_point_silhouette(points, assignments, metric="euclidean") -> SilhouetteReport:
    """The silhouette point by point, one numpy reduction per point and per
    other cluster: the reference ``silhouette`` must match bit for bit."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    assignments = np.asarray(assignments, dtype=int)
    labels = np.unique(assignments)
    if len(labels) < 2:
        raise ComputationError("silhouette undefined for k = 1")
    distances = distance_matrix(points, metric)

    per_point = []
    for i in range(points.shape[0]):
        own = assignments == assignments[i]
        own_size = int(own.sum())
        if own_size == 1:
            per_point.append(0.0)
            continue
        a = float(distances[i, own].sum() - distances[i, i]) / (own_size - 1)
        b = min(
            float(distances[i, assignments == other].mean())
            for other in labels
            if other != assignments[i]
        )
        denom = max(a, b)
        per_point.append((b - a) / denom if denom > 0 else 0.0)
    return SilhouetteReport(per_point=tuple(per_point), mean=float(np.mean(per_point)))


# singletons, clusters below and above numpy's 8-wide unrolled sums, and
# clusters past its 128-element pairwise-summation block
CLUSTER_SIZES = st.lists(
    st.sampled_from([1, 2, 3, 7, 8, 9, 31, 128, 129, 200]), min_size=2, max_size=4
).filter(lambda sizes: sum(sizes) <= 400)


# term-count rows whose self-distances 1 - clip(u.u) are not all 0.0: the
# scorer takes each point's diagonal entry out of its own cluster's sum, and
# here leaving it in changes the scores' bits
NONZERO_DIAGONAL = dict(sizes=[2, 3], dim=3, metric="cosine_distance", seed=0)


@settings(max_examples=60, deadline=None, database=None)
@given(
    sizes=CLUSTER_SIZES,
    dim=st.integers(1, 6),
    metric=st.sampled_from(["euclidean", "cosine_distance"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=[1, 9, 129], dim=3, metric="euclidean", seed=0)
@example(sizes=[1, 9, 129], dim=3, metric="cosine_distance", seed=0)
@example(**NONZERO_DIAGONAL)
def test_silhouette_bitwise_equals_per_point_loop(sizes, dim, metric, seed):
    rng = np.random.default_rng(seed)
    labels = rng.choice(50, size=len(sizes), replace=False)
    assignments = rng.permutation(np.repeat(labels, sizes))
    if metric == "cosine_distance":  # term-count rows: small non-negative integers
        points = rng.integers(0, 4, size=(len(assignments), dim)).astype(float)
        points[points.sum(axis=1) == 0, 0] = 1.0
    else:
        points = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=(len(assignments), dim))
    if dict(sizes=sizes, dim=dim, metric=metric, seed=seed) == NONZERO_DIAGONAL:
        assert np.diag(distance_matrix(points, metric)).any()
    expected = per_point_silhouette(points, assignments, metric)
    report = silhouette(points, assignments, metric)
    assert report.per_point == expected.per_point
    assert report.mean == expected.mean


def hexes(report: SilhouetteReport) -> tuple[list[str], str]:
    return [float.hex(s) for s in report.per_point], float.hex(report.mean)


@settings(max_examples=40, deadline=None, database=None)
@given(
    sizes=CLUSTER_SIZES,
    dim=st.integers(1, 24),
    flat=st.booleans(),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
# a side past 128 points with a cluster past 128 members, in one dimension
@example(sizes=[129, 200, 3], dim=1, flat=True, scale=1.0, seed=0)
@example(sizes=[2, 130, 1], dim=17, flat=False, scale=1e3, seed=1)
@example(sizes=[9, 7], dim=130, flat=False, scale=1e-3, seed=2)  # past 128 squares per pair
def test_plain_float_silhouette_bitwise_equals_numpy(sizes, dim, flat, scale, seed):
    """The euclidean path takes lists of floats and adds as numpy does: every
    per-point score and the mean equal numpy's, bit for bit."""
    rng = np.random.default_rng(seed)
    labels = rng.choice(50, size=len(sizes), replace=False)
    assignments = rng.permutation(np.repeat(labels, sizes)).tolist()  # ungrouped, unsorted
    centres = rng.normal(scale=3 * scale, size=(len(sizes), dim))
    points = centres[[labels.tolist().index(a) for a in assignments]]
    points = points + rng.normal(scale=scale, size=points.shape)
    if flat and dim == 1:
        points = points[:, 0]  # one float per point
    report = silhouette(points.tolist(), assignments)
    assert hexes(report) == hexes(numpy_silhouette(points, assignments))


@settings(max_examples=40, deadline=None, database=None)
@given(dim=st.sampled_from([1, 7, 8, 9, 61, 128, 129, 200, 300]), seed=st.integers(0, 2**32 - 1))
def test_cosine_silhouette_of_sparse_float_rows_equals_the_oracle(dim, seed):
    """Rows of floats, most coordinates zero, of 1 to 300 dimensions: a norm
    adds only the nonzero squares, in coordinate order, as the oracle adds
    the whole row."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(12, dim)) * (rng.random((12, dim)) < 0.3)
    points[np.abs(points).sum(axis=1) == 0, 0] = 1.0
    assignments = [i % 3 for i in range(12)]
    expected = per_point_silhouette(points, assignments, "cosine_distance")
    assert hexes(silhouette(points.tolist(), assignments, "cosine_distance")) == hexes(expected)


def test_distance_beyond_float_range_rejected():
    with pytest.raises(ComputationError, match="float range"):
        silhouette([[0.0, 1.0], [1e200, 1.0], [5.0, 5.0], [6.0, 5.0]], [0, 0, 1, 1])


COSINE_ROWS = [[1, 1], [1, 1], [2, 2], [3, 1]]


@pytest.mark.parametrize("big", [[1e200, 1e200], [2.0**1000, 2.0**1000], [2.0**-1000, 2.0**-1000]])
def test_cosine_rows_beyond_the_squares_range_count_as_their_direction(big):
    # the squares of 1e200 and 2**1000 overflow, those of 2**-1000 underflow; each row is
    # scaled by a power of two first, so the first row counts as (1, 1), with no
    # warning (RuntimeWarnings are errors here)
    report = silhouette([big, *COSINE_ROWS[1:]], [0, 0, 1, 1], metric="cosine_distance")
    assert hexes(report) == hexes(silhouette(COSINE_ROWS, [0, 0, 1, 1], metric="cosine_distance"))


@pytest.mark.parametrize("shift", [-900, -40, -1, 1, 40, 900])
def test_cosine_silhouette_is_unchanged_by_power_of_two_scaling(shift):
    rng = random.Random(shift)
    rows = [[rng.uniform(-3.0, 3.0) for _ in range(5)] for _ in range(12)]
    assignments = [i % 3 for i in range(12)]
    scaled = [[math.ldexp(x, shift * (i % 2)) for x in row] for i, row in enumerate(rows)]
    assert hexes(silhouette(scaled, assignments, metric="cosine_distance")) == hexes(
        silhouette(rows, assignments, metric="cosine_distance"))


@pytest.mark.parametrize("row", [[math.inf, 1.0], [math.nan, 1.0]])
def test_cosine_of_a_non_finite_vector_rejected(row):
    with pytest.raises(ComputationError, match="cosine distance undefined"):
        silhouette([row, [1.0, 0.0], [0.0, 1.0]], [0, 1, 1], metric="cosine_distance")


class TestMannWhitney:
    def test_complete_separation(self):
        result = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert result.u_a == 0.0
        assert result.u_b == 9.0

    def test_identical_samples(self):
        result = mann_whitney_u([1, 2, 3], [1, 2, 3])
        assert result.u_a == result.u_b == 4.5
        assert result.z == 0.0
        assert result.p_two_sided == 1.0

    def test_matches_pair_count_oracle(self):
        rng = random.Random(5)
        for _ in range(200):
            a = [rng.randint(0, 8) for _ in range(rng.randint(1, 15))]
            b = [rng.randint(0, 8) for _ in range(rng.randint(1, 15))]
            result = mann_whitney_u(a, b)
            u_a, u_b = mann_whitney_pair_oracle(a, b)
            assert result.u_a == pytest.approx(u_a, abs=1e-9)
            assert result.u_b == pytest.approx(u_b, abs=1e-9)

    def test_pair_count_identity(self):
        rng = random.Random(6)
        for _ in range(100):
            a = [rng.uniform(0, 5) for _ in range(rng.randint(1, 20))]
            b = [rng.uniform(0, 5) for _ in range(rng.randint(1, 20))]
            result = mann_whitney_u(a, b)
            assert result.u_a + result.u_b == pytest.approx(len(a) * len(b), abs=1e-9)

    def test_no_variation_at_all(self):
        result = mann_whitney_u([2, 2], [2, 2, 2])
        assert result.z == 0.0
        assert result.p_two_sided == 1.0
        assert result.effect_r == 0.0

    def test_effect_size_definition(self):
        result = mann_whitney_u(list(range(10)), list(range(5, 15)))
        assert result.effect_r == pytest.approx(abs(result.z) / math.sqrt(20))

    def test_empty_sample_rejected(self):
        with pytest.raises(ComputationError):
            mann_whitney_u([], [1.0])

    def test_p_value_against_normal_tail(self):
        result = mann_whitney_u(list(range(20)), list(range(15, 35)))
        expected = math.erfc(abs(result.z) / math.sqrt(2.0))
        assert result.p_two_sided == pytest.approx(expected)


class TestKrippendorff:
    def test_perfect_agreement(self):
        ratings = [[1, 2, 3, 1], [1, 2, 3, 1], [1, 2, 3, 1]]
        for metric in ("nominal", "ordinal", "interval"):
            assert krippendorff_alpha(ratings, metric) == pytest.approx(1.0)

    def test_systematic_disagreement_negative(self):
        # hand-built coincidence matrix gives alpha = -0.5
        alpha = krippendorff_alpha([[1, 2], [2, 1]], "nominal")
        assert alpha == pytest.approx(-0.5)

    def test_single_rating_per_item_rejected(self):
        with pytest.raises(ComputationError):
            krippendorff_alpha([[1, None], [None, 2]], "nominal")

    def test_fewer_than_two_coders_rejected(self):
        with pytest.raises(ComputationError):
            krippendorff_alpha([[1, 2, 3]], "nominal")

    def test_missing_values_excluded(self):
        ratings = [[1, 1, None], [1, 1, 5]]
        assert krippendorff_alpha(ratings, "nominal") == pytest.approx(1.0)

    def test_known_nominal_value(self):
        # classic worked example (Krippendorff 2011): alpha = 0.691 nominal
        ratings = [
            [1, 2, 3, 3, 2, 1, 4, 1, 2, None, None, None],
            [1, 2, 3, 3, 2, 2, 4, 1, 2, 5, None, 3],
            [None, 3, 3, 3, 2, 3, 4, 2, 2, 5, 1, None],
            [1, 2, 3, 3, 2, 4, 4, 1, 2, 5, 1, None],
        ]
        assert krippendorff_alpha(ratings, "nominal") == pytest.approx(0.743, abs=0.01)

    def test_interval_more_forgiving_than_nominal_for_near_misses(self):
        ratings = [[1, 2, 3, 4, 5], [2, 3, 4, 5, 5]]
        nominal = krippendorff_alpha(ratings, "nominal")
        interval = krippendorff_alpha(ratings, "interval")
        assert interval > nominal

    def test_ordinal_metric_runs(self):
        ratings = [[1, 2, 3, 4], [1, 3, 3, 4], [2, 2, 3, 4]]
        alpha = krippendorff_alpha(ratings, "ordinal")
        assert -1.0 <= alpha <= 1.0

    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_disagreements_beyond_the_float_range_rejected(self, big):
        # before, 1e200 raised OverflowError and 1e308 returned NaN
        with pytest.raises(ComputationError, match="float range"):
            krippendorff_alpha([[big, -big, big], [big, -big, -big]], "interval")

    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_no_observed_disagreement_is_alpha_one_at_any_scale(self, big):
        # only the expected disagreement is infinite (1e308 gave 1.0 before too)
        assert krippendorff_alpha([[big, -big], [big, -big]], "interval") == 1.0


@settings(max_examples=200, deadline=None, database=None)
@given(ratings=st.lists(
    st.lists(st.sampled_from([None, 0.0, 1.0, -2.5, 1e154, -1e154, 1e200, 1e308, -1e308]),
             min_size=3, max_size=3),
    min_size=2, max_size=4,
))
def test_interval_alpha_is_finite_or_a_computation_error(ratings):
    try:
        alpha = krippendorff_alpha(ratings, "interval")
    except ComputationError:
        return
    assert math.isfinite(alpha)


# Builtin sum() of floats compensates from Python 3.12 on, so a float sum that
# must give the same bytes on every version adds left to right. In each pin,
# the two orders give different floats; shadowing ``sum`` with the compensated
# version in the module shows that no such sum is left there.


def test_rouge_mean_adds_left_to_right(monkeypatch):
    assert compensated_sum([0.1] * 10) == 1.0
    monkeypatch.setattr(evalkit, "sum", compensated_sum, raising=False)
    score = _mean_score(RougeVariant.R1, [(0.1, 0.1, 0.1)] * 10)
    assert (score.recall, score.precision, score.f1) == (0.9999999999999999 / 10,) * 3


def test_alpha_adds_left_to_right(monkeypatch):
    monkeypatch.setattr(evalkit, "sum", compensated_sum, raising=False)
    alpha = krippendorff_alpha([[1.1, 2.5, None, 1.1], [0.2, 0.3, 0.1, 2.5]], "interval")
    assert alpha.hex() == "-0x1.d0f1b7d908d58p-3"  # compensated sums give ...d60p-3
