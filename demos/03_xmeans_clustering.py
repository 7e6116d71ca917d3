"""X-means clustering over the ontology vector space.

Builds term-frequency vectors over the gazetteer vocabulary, the cosine
similarity matrix, and a PCA reduction of the similarity profiles, then lets
X-means grow the cluster count by BIC-driven splits. Run once per side and
once pooled (both sides together), with silhouette scores for each run.

Also shows the split decision on synthetic blobs, where the answer is known.
"""

from pathlib import Path

import numpy as np

from debatesum.annotate import annotate_sentence, canonical_label, load_gazetteer, load_synonyms
from debatesum.corpus import SIDES, load_corpus, salient_count
from debatesum.evalkit import silhouette
from debatesum.vector_clustering import (
    build_similarity_matrix,
    build_term_vectors,
    pca_fit_transform,
    xmeans,
)

SAMPLE = Path(__file__).resolve().parents[1] / "data" / "sample"


def cluster_sentences(terms_by_sentence, vocabulary, label):
    ids, counts, excluded = build_term_vectors(terms_by_sentence, vocabulary)
    print(f"{label}: {len(ids)} vectors ({len(excluded)} term-free, excluded)")
    if len(ids) < 3:
        print("  too few vectors to cluster\n")
        return
    matrix = build_similarity_matrix(counts)
    model, reduced = pca_fit_transform(matrix, variance_target=0.95)
    n = len(ids)
    print(f"  similarity matrix {n}x{n}, PCA keeps {len(model.components)} of {n} dimensions")
    result = xmeans(reduced, k_min=2, k_max=min(10, n), seed=42)
    print(f"  xmeans: k={result.k}, BIC={result.bic:.2f}, {result.iterations} Lloyd iterations")
    if result.k >= 2:
        report = silhouette(reduced, result.assignments, metric="euclidean")
        print(f"  mean silhouette: {report.mean:.4f}")
    for j in range(result.k):
        members = [sid for sid, a in zip(ids, result.assignments) if a == j]
        print(f"    cluster {j}: {members}")
    print()


def main():
    corpus = load_corpus(SAMPLE / "corpus.json")
    gazetteer = load_gazetteer(SAMPLE / "gazetteer.txt")
    synonyms = load_synonyms(SAMPLE / "synonyms.tsv")
    vocabulary = sorted({canonical_label(t, synonyms) for t in gazetteer.terms.values()})

    # salient sentences of both topics, 50% to have enough points to cluster
    per_side = {side: {} for side in SIDES}
    pooled = {}
    for topic in corpus:
        for comment in topic.comments:
            keep = salient_count(len(comment.sentences), ratio=0.5)
            for sentence in comment.sentences[:keep]:
                terms = [
                    canonical_label(a.term, synonyms)
                    for a in annotate_sentence(sentence, gazetteer)
                ]
                per_side[comment.side][sentence.id] = terms
                pooled[sentence.id] = terms

    for side in SIDES:
        cluster_sentences(per_side[side], vocabulary, f"side {side}")
    cluster_sentences(pooled, vocabulary, "pooled (both sides)")

    # sanity check on data with known structure: three tight blobs
    rng = np.random.default_rng(0)
    blobs = np.concatenate(
        [rng.normal(c, 1.0, size=(50, 2)) for c in [(0, 0), (15, 0), (0, 15)]]
    ).tolist()
    result = xmeans(blobs, k_min=1, k_max=10, seed=0)
    print(f"three planted blobs, k_min=1: xmeans found k={result.k}")


if __name__ == "__main__":
    main()
