"""The three cluster-labeling strategies side by side.

Shared-term labeling names a term cluster after its defining term. The
tf*idf baseline scores terms by in-cluster frequency times rarity across
clusters. Mutual Information picks the term whose presence carries the most
bits about cluster membership; on a planted example it recovers the label
even when no term is shared by all members.
"""

from collections import Counter
from pathlib import Path

import numpy as np

from debatesum.annotate import annotate_sentence, canonical_label, load_gazetteer, load_synonyms
from debatesum.corpus import load_corpus, salient_count
from debatesum.labeling import (
    ContingencyCounts,
    mi_label,
    mutual_information,
    shared_term_label,
    term_index,
    tfidf_labels,
)
from debatesum.term_clustering import cluster_by_shared_term, merge_synonymous_clusters

SAMPLE = Path(__file__).resolve().parents[1] / "data" / "sample"


def main():
    corpus = load_corpus(SAMPLE / "corpus.json")
    gazetteer = load_gazetteer(SAMPLE / "gazetteer.txt")
    synonyms = load_synonyms(SAMPLE / "synonyms.tsv")
    topic = corpus[0]

    terms_by_sentence = {}
    for comment in topic.comments:
        if comment.side != "disagree":
            continue
        keep = salient_count(len(comment.sentences), ratio=0.5)
        for sentence in comment.sentences[:keep]:
            terms_by_sentence[sentence.id] = [
                canonical_label(a.term, synonyms)
                for a in annotate_sentence(sentence, gazetteer)
            ]

    clusters, _ = cluster_by_shared_term(terms_by_sentence)
    clusters = merge_synonymous_clusters(clusters, synonyms)
    print(f"{len(clusters)} term clusters on the disagree side of {topic.id!r}\n")

    index = term_index(list(clusters.values()), terms_by_sentence)
    term_counts = [
        Counter(t for sid in members for t in terms_by_sentence[sid]) for members in clusters.values()
    ]
    tfidf = tfidf_labels(term_counts)
    print(f"{'cluster':<22} {'shared':<18} {'tfidf':<18} {'mi':<18}")
    for i, (label, members) in enumerate(clusters.items()):
        shared = shared_term_label(label)
        mi = mi_label(members, index)
        print(
            f"{label:<22} {shared.term:<18} {tfidf[i].term:<18} {mi.term} ({mi.score:.3f} bits)"
        )

    # the MI formula on a literal contingency table
    counts = ContingencyCounts(n11=3, n10=1, n01=2, n00=4)
    print(f"\nMI of a 3/1/2/4 contingency table: {mutual_information(counts):.4f} bits")

    # planted-label recovery where no single term covers a whole cluster
    rng = np.random.default_rng(1)
    planted = ["ice", "tax", "solar"]
    noise = [f"noise{i}" for i in range(8)]
    clusters2, terms2 = [], {}
    sid = 0
    for i, label in enumerate(planted):
        members = []
        for _ in range(12):
            name = f"p{sid}"
            sid += 1
            members.append(name)
            ts = [label] if rng.random() < 0.9 else []
            ts += [t for t in noise if rng.random() < 0.15]
            terms2[name] = ts
        clusters2.append(members)
    print("\nplanted labels, 90% coverage, noisy terms everywhere:")
    index2 = term_index(clusters2, terms2)
    for i, members in enumerate(clusters2):
        got = mi_label(members, index2)
        print(f"  planted {planted[i]:<6} -> MI picks {got.term}")


if __name__ == "__main__":
    main()
