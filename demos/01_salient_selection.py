"""Salient sentence selection on the bundled debate sample.

Loads the two-topic climate debate corpus, extracts topic signatures for one
topic against the other, scores every sentence with the eight features, and
selects the top 20% per comment. Shows how the sentence-position feature
picks the leading sentences while the combined score can differ.
"""

from pathlib import Path

from debatesum.corpus import salient_indices
from debatesum.pipeline import load_config, load_inputs, topic_signatures_for
from debatesum.saliency import Feature, score_comment

SAMPLE = Path(__file__).resolve().parents[1] / "data" / "sample"


def main():
    inputs = load_inputs(load_config(SAMPLE / "config.json"))
    corpus, lexicons = inputs.corpus, inputs.lexicons

    topic = corpus[0]
    print(f"topic {topic.id}: {topic.title!r}")

    signatures = topic_signatures_for(corpus, topic, threshold=10.83)
    print(f"\ntopic signatures vs the other topics (LLR >= 10.83):")
    for s in signatures[:8]:
        print(f"  {s.term:<14} llr={s.llr:7.2f}")
    if not signatures:
        print("  (none cleared the threshold)")

    comment = topic.comments[2]  # the five-sentence agree comment
    print(f"\ncomment {comment.id} ({comment.side}, {len(comment.sentences)} sentences)")
    scores = score_comment(comment, topic, lexicons, signatures)
    # one column per feature, in sentence order
    header = f"{'sentence':<10} {'SP':>5} {'SL':>5} {'TT':>5} {'CJ':>3} {'TTS':>6} {'CB':>6}"
    print(header)
    rows = zip(
        comment.sentences,
        *(scores.column(f) for f in (Feature.SP, Feature.SL, Feature.TT, Feature.CJ, Feature.COS_TTS)),
        scores.cb,
    )
    for s, sp, sl, tt, cj, tts, cb in rows:
        print(f"{s.id:<10} {sp:>5.2f} {sl:>5.0f} {tt:>5.2f} {cj:>3.0f} {tts:>6.3f} {cb:>6.3f}")

    for feature in (Feature.SP, Feature.CB, Feature.COS_TTS):
        print(f"\ntop 20% by {feature.value}:")
        for i in salient_indices(scores.column(feature)):
            s = comment.sentences[i]
            print(f"  {s.id}: {s.text}")


if __name__ == "__main__":
    main()
