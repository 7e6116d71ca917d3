"""Term-based soft clustering of salient sentences.

Annotates the sample corpus with the 64-term climate gazetteer, groups one
side's salient sentences by shared term (a sentence with several terms joins
several clusters), then merges synonym-equivalent clusters: "co2" and
"carbon dioxide" collapse into one.
"""

from pathlib import Path

from debatesum.annotate import annotate_sentence, canonical_label, load_gazetteer, load_synonyms
from debatesum.corpus import SIDES, load_corpus, salient_count
from debatesum.term_clustering import cluster_by_shared_term, merge_synonymous_clusters

SAMPLE = Path(__file__).resolve().parents[1] / "data" / "sample"


def main():
    corpus = load_corpus(SAMPLE / "corpus.json")
    gazetteer = load_gazetteer(SAMPLE / "gazetteer.txt")
    synonyms = load_synonyms(SAMPLE / "synonyms.tsv")
    topic = corpus[0]

    # salient here = leading 20% of each comment (the strongest feature)
    salient = {}
    for comment in topic.comments:
        keep = salient_count(len(comment.sentences))
        for sentence in comment.sentences[:keep]:
            salient[sentence.id] = (comment.side, sentence)

    print(f"{len(salient)} salient sentences from topic {topic.id!r}\n")
    for side in SIDES:
        terms_by_sentence = {}
        for sid, (s_side, sentence) in salient.items():
            if s_side == side:
                annotations = annotate_sentence(sentence, gazetteer)
                terms_by_sentence[sid] = [a.term for a in annotations]
                shown = ", ".join(a.term for a in annotations) or "(no terms)"
                print(f"  [{side}] {sid}: {shown}")

        clusters, unclustered = cluster_by_shared_term(terms_by_sentence)
        print(f"\n{side}: {len(clusters)} raw term clusters, {len(unclustered)} unclustered")
        for label, members in clusters.items():
            print(f"  {label:<18} -> {members}")

        merged = merge_synonymous_clusters(clusters, synonyms)
        if len(merged) != len(clusters):
            print(f"after synonym merging: {len(merged)} clusters")
            for label, members in merged.items():
                print(f"  {label:<18} -> {members}")
        print()

    example = "co2"
    print(f"canonical label of {example!r}: {canonical_label(example, synonyms)!r}")


if __name__ == "__main__":
    main()
