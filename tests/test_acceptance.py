"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Criterion 4 checks the ROUGE implementation against a brute-force
oracle unless the real debate corpus is supplied through the
DEBATESUM_SSSD_CORPUS / DEBATESUM_SSSD_GOLD environment variables, in which
case it checks the sentence-position feature's dominance instead.
"""

import json
import math
import os
import random
import shutil
import time
import warnings
from collections import Counter

import numpy as np

from conftest import SAMPLE_DIR

from debatesum.corpus import Side, load_corpus, load_gold
from debatesum.evalkit import RougeVariant, rouge, silhouette
from debatesum.labeling import ContingencyCounts, mi_label, mutual_information, tfidf_labels
from debatesum.pipeline import (
    compute_rouge_table,
    load_config,
    run_pipeline,
)
from debatesum.saliency import default_lexicons
from debatesum.term_clustering import cluster_by_shared_term
from debatesum import vector_clustering
from debatesum.vector_clustering import (
    bic_score,
    build_similarity_matrix,
    build_term_vectors,
    kmeans,
    pca_fit_transform,
    xmeans,
)


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion} ({name}): {status} - {detail}")


# ---------------------------------------------------------------------------
# criterion 1: mutual information against an independent oracle
# ---------------------------------------------------------------------------


def mi_entropy_oracle(n11, n10, n01, n00):
    """Independent route: I = H(term) + H(class) - H(joint), in bits."""

    def entropy(ps):
        return -sum(p * math.log2(p) for p in ps if p > 0)

    n = n11 + n10 + n01 + n00
    return (
        entropy([(n11 + n10) / n, (n01 + n00) / n])
        + entropy([(n11 + n01) / n, (n10 + n00) / n])
        - entropy([n11 / n, n10 / n, n01 / n, n00 / n])
    )


def test_criterion_1_mi_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20240801)
    worst = 0.0
    for _ in range(10_000):
        cells = [rng.randint(0, 50) for _ in range(4)]
        if sum(cells) == 0:
            cells[rng.randrange(4)] = 1
        ours = mutual_information(ContingencyCounts(*cells))
        worst = max(worst, abs(ours - mi_entropy_oracle(*cells)))
    examples_ok = (
        mutual_information(ContingencyCounts(25, 25, 25, 25)) == 0.0
        and abs(mutual_information(ContingencyCounts(2, 0, 0, 2)) - 1.0) < 1e-12
        and abs(mutual_information(ContingencyCounts(3, 1, 2, 4)) - 0.1245) < 1e-4
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and examples_ok and elapsed < 5.0
    report(1, "MI oracle equivalence", ok,
           f"max deviation {worst:.2e} over 10000 tables, examples_ok={examples_ok}, "
           f"{elapsed:.2f}s")
    assert worst < 1e-10
    assert examples_ok
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# criterion 2: x-means planted-structure recovery with a BIC-over-k oracle
# ---------------------------------------------------------------------------


def three_blob_data(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    sigma = 1.0
    centers = [(0.0, 0.0), (15.0, 0.0), (0.0, 15.0)]  # separation 15 >= 10 sigma
    return np.concatenate([rng.normal(c, sigma, size=(50, 2)) for c in centers])


def exhaustive_bic_argmax(points: np.ndarray, k_max: int, seed: int) -> int:
    best_k, best_bic = None, -np.inf
    for k in range(1, k_max + 1):
        best_run = None
        for restart in range(5):
            run = kmeans(points, k, seed=seed * 1000 + restart)
            distortion = run.distortion_history[-1]
            if best_run is None or distortion < best_run[0]:
                best_run = (distortion, run)
        try:
            bic = bic_score(points, best_run[1])
        except Exception:
            continue
        if bic > best_bic:
            best_bic, best_k = bic, k
    return best_k


def test_criterion_2_xmeans_planted_recovery():
    start = time.perf_counter()
    hits = 0
    oracle_agreements = 0
    for seed in range(100):
        points = three_blob_data(seed)
        result = xmeans(points, k_min=1, k_max=10, seed=seed)
        if result.k == 3:
            hits += 1
            if exhaustive_bic_argmax(points, 10, seed) == 3:
                oracle_agreements += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 95 and oracle_agreements == hits and elapsed < 30.0
    report(2, "X-means planted recovery", ok,
           f"k=3 in {hits}/100 runs, oracle argmax agreed in {oracle_agreements}/{hits}, "
           f"{elapsed:.1f}s")
    assert hits >= 95
    assert oracle_agreements == hits
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 3: silhouette contrast between the two clustering branches
# ---------------------------------------------------------------------------


def overlapping_term_corpus(seed: int):
    """Three topic groups; every sentence carries its group's core term
    (count 4) plus 1-2 satellite terms, so term content overlaps heavily
    within a group and not at all across groups."""
    rng = np.random.default_rng(seed)
    n_groups, satellites, per_group = 3, 3, 30
    vocabulary = []
    for g in range(n_groups):
        vocabulary.append((f"g{g}core",))
        vocabulary.extend((f"g{g}sat{t}",) for t in range(satellites))
    terms_by_sentence = {}
    sid = 0
    width = 1 + satellites
    for g in range(n_groups):
        pool = vocabulary[g * width : (g + 1) * width]
        core, sats = pool[0], pool[1:]
        for _ in range(per_group):
            ts = [core] * 4
            n_sat = int(rng.integers(1, 3))
            for i in sorted(rng.choice(len(sats), size=n_sat, replace=False)):
                ts.append(sats[i])
            terms_by_sentence[f"s{sid}"] = ts
            sid += 1
    return terms_by_sentence, vocabulary


def test_criterion_3_silhouette_contrast():
    start = time.perf_counter()
    terms, vocabulary = overlapping_term_corpus(seed=0)
    multi_fraction = sum(1 for ts in terms.values() if len(set(ts)) >= 2) / len(terms)

    vectors, _ = build_term_vectors(terms, vocabulary)
    counts_by_id = {v.sentence_id: v.counts for v in vectors}

    # term branch: soft clusters, one instance per membership, cosine distance
    clusters, _ = cluster_by_shared_term(terms, Side.AGREE)
    points, assignments = [], []
    for j, cluster in enumerate(clusters):
        for sid in cluster.members:
            points.append(counts_by_id[sid])
            assignments.append(j)
    term_sil = silhouette(np.stack(points), assignments, metric="cosine_distance").mean

    # x-means branch: similarity profiles, PCA, euclidean silhouette
    matrix = build_similarity_matrix(vectors)
    _, reduced = pca_fit_transform(matrix.values, variance_target=0.95)
    result = xmeans(reduced, k_min=2, k_max=10, seed=0)
    xmeans_sil = silhouette(reduced, result.assignments, metric="euclidean").mean

    elapsed = time.perf_counter() - start
    ok = (
        multi_fraction >= 0.3
        and xmeans_sil - term_sil >= 0.5
        and -0.15 <= term_sil <= 0.15
        and elapsed < 60.0
    )
    report(3, "silhouette contrast", ok,
           f"multi-term fraction {multi_fraction:.2f}, term {term_sil:+.4f} "
           f"({len(clusters)} clusters), xmeans {xmeans_sil:.4f} (k={result.k}), "
           f"diff {xmeans_sil - term_sil:.4f}, {elapsed:.1f}s")
    assert multi_fraction >= 0.3
    assert xmeans_sil - term_sil >= 0.5
    assert -0.15 <= term_sil <= 0.15
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 4: ROUGE against the real corpus when available, else the
# brute-force n-gram-multiset oracle
# ---------------------------------------------------------------------------


def greedy_multiset_match(system_units, reference_units):
    used = [False] * len(reference_units)
    matched = 0
    for unit in system_units:
        for i, ref in enumerate(reference_units):
            if not used[i] and ref == unit:
                used[i] = True
                matched += 1
                break
    return matched


def enumerate_units(tokens, variant):
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


def _rouge_against_oracle() -> tuple[bool, str]:
    rng = random.Random(20240802)
    vocab = [f"w{i}" for i in range(10)]
    worst = 0.0
    for _ in range(1_000):
        system = [rng.choice(vocab) for _ in range(rng.randint(0, 15))]
        reference = [rng.choice(vocab) for _ in range(rng.randint(1, 15))]
        for variant in RougeVariant:
            score = rouge(system, [reference], variant)
            sys_units = enumerate_units(system, variant)
            ref_units = enumerate_units(reference, variant)
            match = greedy_multiset_match(sys_units, ref_units)
            recall = match / len(ref_units) if ref_units else 0.0
            precision = match / len(sys_units) if sys_units else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            worst = max(
                worst,
                abs(score.recall - recall),
                abs(score.precision - precision),
                abs(score.f1 - f1),
            )
    return worst < 1e-12, f"oracle property on 1000 random pairs, max deviation {worst:.2e}"


def _rouge_against_corpus(corpus_path: str, gold_path: str) -> tuple[bool, str]:
    corpus = load_corpus(corpus_path)
    gold = load_gold(gold_path, corpus)
    table = compute_rouge_table(corpus, gold, default_lexicons())
    sp = {v: table["SP"][v]["recall"] for v in ("R1", "R2", "RSU4")}
    dominated = all(
        sp[v] >= table[f][v]["recall"]
        for v in ("R1", "R2", "RSU4")
        for f in table
        if f not in ("SP", "CB")
    )
    anchor_ok = abs(sp["R1"] - 0.6124) <= 0.05
    return dominated and anchor_ok, (
        f"corpus mode: SP R1={sp['R1']:.4f} (anchor 0.6124 +/- 0.05), dominance={dominated}"
    )


def test_criterion_4_rouge_replication():
    start = time.perf_counter()
    corpus_path = os.environ.get("DEBATESUM_SSSD_CORPUS")
    gold_path = os.environ.get("DEBATESUM_SSSD_GOLD")
    if corpus_path and gold_path:
        ok, detail = _rouge_against_corpus(corpus_path, gold_path)
    else:
        ok, detail = _rouge_against_oracle()
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(4, "ROUGE replication", ok, f"{detail}, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: planted-label recovery for the MI and tf*idf labelers
# ---------------------------------------------------------------------------


def planted_label_corpus(seed, n_clusters=8, size=20, coverage=0.9, leakage=0.05,
                         n_noise=30, p_noise=0.10):
    rng = np.random.default_rng(seed)
    planted = [(f"planted{i}",) for i in range(n_clusters)]
    noise = [(f"noise{i}",) for i in range(n_noise)]
    clusters, terms = [], {}
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
            for t in noise:
                if rng.random() < p_noise:
                    ts.append(t)
            terms[name] = ts
        clusters.append(members)
    return clusters, terms, planted


def test_criterion_5_planted_label_recovery():
    start = time.perf_counter()
    mi_hits = tf_hits = total = 0
    for seed in range(50):
        clusters, terms, planted = planted_label_corpus(seed)
        term_counts = [Counter(t for s in c for t in terms[s]) for c in clusters]
        tf_labels = tfidf_labels(term_counts)
        for i, cluster in enumerate(clusters):
            total += 1
            mi_hits += mi_label(cluster, clusters, terms).term == planted[i]
            tf_hits += tf_labels[i].term == planted[i]
    elapsed = time.perf_counter() - start
    ok = mi_hits == total and tf_hits / total >= 0.9 and elapsed < 30.0
    report(5, "planted label recovery", ok,
           f"MI {mi_hits}/{total}, tfidf {tf_hits}/{total} ({tf_hits / total:.1%}), "
           f"{elapsed:.1f}s")
    assert mi_hits == total
    assert tf_hits / total >= 0.9
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 6: invariant suites
# ---------------------------------------------------------------------------


def test_criterion_6_invariant_suites(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    checks: dict[str, bool] = {}

    # PCA orthonormality and variance conservation
    points = rng.standard_normal((40, 6)) * np.array([5, 3, 2, 1, 0.5, 0.2])
    model, _ = pca_fit_transform(points, variance_target=1.0)
    gram = model.components @ model.components.T
    checks["pca_orthonormal"] = bool(
        np.allclose(gram, np.eye(model.components.shape[0]), atol=1e-9)
    )
    checks["pca_variance_conserved"] = bool(
        abs(model.explained_variance.sum() - np.trace(np.cov(points.T, ddof=1))) < 1e-9
    )

    # k-means monotone descent
    descent = True
    for seed in range(5):
        history = kmeans(rng.standard_normal((100, 3)), 5, seed=seed).distortion_history
        descent &= all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
    checks["kmeans_monotone_descent"] = descent

    # similarity matrix symmetry
    terms = {f"s{i}": [(f"t{j}",) for j in rng.integers(0, 6, size=3)] for i in range(10)}
    vectors, _ = build_term_vectors(terms, [(f"t{j}",) for j in range(6)])
    matrix = build_similarity_matrix(vectors)
    checks["similarity_symmetric"] = bool(np.array_equal(matrix.values, matrix.values.T))

    # alignment one-to-one
    from debatesum.alignment import LabeledCluster, align_clusters
    from debatesum.annotate import SynonymTable

    agree = [
        LabeledCluster(f"a{i}", Side.AGREE, ("shared", "term")) for i in range(4)
    ]
    disagree = [
        LabeledCluster(f"d{i}", Side.DISAGREE, ("shared", "term")) for i in range(3)
    ]
    pairs, _ = align_clusters(agree, disagree, SynonymTable(), threshold=0.5)
    ids = [p.agree_cluster_id for p in pairs] + [p.disagree_cluster_id for p in pairs]
    checks["alignment_one_to_one"] = len(ids) == len(set(ids)) and len(pairs) == 3

    # Mann-Whitney pair-count identity
    from debatesum.evalkit import mann_whitney_u

    identity = True
    for _ in range(50):
        a = rng.integers(0, 6, size=int(rng.integers(1, 15))).tolist()
        b = rng.integers(0, 6, size=int(rng.integers(1, 15))).tolist()
        result = mann_whitney_u(a, b)
        identity &= abs(result.u_a + result.u_b - len(a) * len(b)) < 1e-9
    checks["mann_whitney_pair_count"] = identity

    # Krippendorff unanimity
    from debatesum.evalkit import krippendorff_alpha

    unanimous = [[1, 2, 3, 2], [1, 2, 3, 2], [1, 2, 3, 2]]
    checks["krippendorff_unanimity"] = all(
        krippendorff_alpha(unanimous, metric) == 1.0
        for metric in ("nominal", "ordinal", "interval")
    )

    # chart JSON round-trip
    from debatesum.chart import Bar, ChartSummary, parse_chart_json, render_chart

    chart = ChartSummary("t", (Bar("ice", 4, 2, 0.8), Bar("co2", 1, 3, 1.0)))
    checks["chart_round_trip"] = parse_chart_json(render_chart(chart, "json")) == chart

    # end-to-end byte determinism for a fixed seed
    work = tmp_path / "inputs"
    work.mkdir()
    for name in ("corpus.json", "gold.json", "gazetteer.txt", "synonyms.tsv", "embeddings.txt"):
        shutil.copy(SAMPLE_DIR / name, work / name)
    config_doc = {
        "corpus_path": "corpus.json",
        "gold_path": "gold.json",
        "gazetteer_path": "gazetteer.txt",
        "synonyms_path": "synonyms.tsv",
        "embeddings_path": "embeddings.txt",
        "seed": 7,
        "output_dir": str(tmp_path / "out_a"),
    }
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config_doc), encoding="utf-8")
    manifest_a = run_pipeline(load_config(config_path))
    config_doc["output_dir"] = str(tmp_path / "out_b")
    config_path.write_text(json.dumps(config_doc), encoding="utf-8")
    manifest_b = run_pipeline(load_config(config_path))
    same = manifest_a["artifacts"] == manifest_b["artifacts"]
    for name in manifest_a["artifacts"]:
        same &= (
            (tmp_path / "out_a" / name).read_bytes() == (tmp_path / "out_b" / name).read_bytes()
        )
    checks["pipeline_byte_deterministic"] = same

    elapsed = time.perf_counter() - start
    ok = all(checks.values()) and elapsed < 120.0
    failing = [name for name, passed in checks.items() if not passed]
    report(6, "invariant suites", ok,
           f"{len(checks)} checks, failing={failing or 'none'}, {elapsed:.1f}s")
    assert not failing
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 7: X-means on duplicate points
# ---------------------------------------------------------------------------


def test_criterion_7_duplicate_blobs(monkeypatch):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    distinct = rng.normal(0.0, 5.0, size=(3, 4))
    group = rng.permutation(np.repeat(np.arange(3), 10))
    points = distinct[group]

    lloyd_runs = []
    lloyd = vector_clustering._lloyd

    def recording_lloyd(*args):
        result = lloyd(*args)
        lloyd_runs.append((result[2], args[-1]))  # (iterations, max_iter)
        return result

    monkeypatch.setattr(vector_clustering, "_lloyd", recording_lloyd)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = xmeans(points, k_min=2, k_max=25, seed=0)
    copies_together = all(
        len(set(result.assignments[group == g].tolist())) == 1 for g in range(3)
    )
    exhausted = sum(1 for iterations, max_iter in lloyd_runs if iterations >= max_iter)
    elapsed = time.perf_counter() - start
    ok = result.k == 3 and copies_together and lloyd_runs and exhausted == 0
    report(7, "duplicate blobs", ok,
           f"k={result.k}, copies together={copies_together}, no RuntimeWarning, "
           f"{exhausted}/{len(lloyd_runs)} Lloyd runs at max_iter, {elapsed:.2f}s")
    assert result.k == 3
    assert copies_together
    assert lloyd_runs and exhausted == 0
