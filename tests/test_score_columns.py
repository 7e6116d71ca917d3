"""``score_comment``'s columns and every ``select_salient`` result equal the
per-sentence loop they replaced, kept here as the oracle, on tied columns
too; a call for one feature returns the full call's columns. The oracle's
COS_STT adds each norm's and dot product's products in coordinate order."""

import math
from array import array
from collections import Counter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SAMPLE_DIR, make_comment, make_topic
from oracles import default_lexicons, select_salient

from debatesum.corpus import load_corpus, salient_count
from debatesum.pipeline import topic_signatures_for
from debatesum.saliency import (
    BASE_FEATURES,
    CommentScores,
    Feature,
    Lexicons,
    TopicSignature,
    load_embeddings,
    score_comment,
)

VOCAB = ("carbon", "ice", "however", "warming", "sea", "level", "the", "zzz")
LEXICONS = dict(
    conjunctive_adverbs=frozenset({("however",), ("the", "sea")}),
    climate_terms=frozenset({("carbon",), ("sea", "level"), ("ice",)}),
)


# --- the oracle: one dict of features per sentence --------------------------


def _set_cosine(token_counts, norm, token_set):
    if not token_counts or not token_set or norm == 0.0:
        return 0.0
    dot = sum(c for t, c in token_counts.items() if t in token_set)
    return dot / (norm * math.sqrt(len(token_set)))


def _mean_embedding(tokens, embeddings):
    vecs = [embeddings[t] for t in tokens if t in embeddings]
    if not vecs:
        return None
    return np.mean(vecs, axis=0)


def _dot(u, v):
    """u . v, the running sum of its products from 0.0, in coordinate order."""
    return float(np.cumsum(np.concatenate([[0.0], u * v]))[-1])


def oracle_scores(comment, topic, lexicons, signatures):
    """sentence id -> (raw, normalized, cb), computed sentence by sentence."""
    n = len(comment.sentences)
    title_tokens = frozenset(topic.title_tokens)
    signature_terms = frozenset(s.term for s in signatures)
    embeddings = lexicons.embeddings
    title_emb = None
    if embeddings is not None:
        title_emb = _mean_embedding(topic.title_tokens, embeddings)
    raws = {}
    for sentence in comment.sentences:
        counts = Counter(sentence.tokens)
        norm = math.sqrt(sum(c * c for c in counts.values()))
        raw = {
            Feature.SP: 1.0 - (sentence.position - 1) / n,
            Feature.SL: float(len(sentence.tokens)),
            Feature.TT: (
                len(set(sentence.tokens) & title_tokens) / len(title_tokens)
                if title_tokens
                else 0.0
            ),
            Feature.CJ: float(
                any(
                    sentence.tokens[:k] in lexicons.conjunctive_adverbs
                    for k in lexicons.conjunctive_adverb_lengths
                )
            ),
            Feature.COS_TPS: _set_cosine(counts, norm, signature_terms),
            Feature.COS_CCTS: _set_cosine(counts, norm, lexicons.climate_tokens),
            Feature.COS_TTS: _set_cosine(counts, norm, title_tokens),
        }
        raw[Feature.COS_STT] = 0.0
        if embeddings is not None and title_emb is not None:
            sent_emb = _mean_embedding(sentence.tokens, embeddings)
            if sent_emb is not None:
                denom = math.sqrt(_dot(sent_emb, sent_emb)) * math.sqrt(_dot(title_emb, title_emb))
                cosine = _dot(sent_emb, title_emb) / denom if denom else 0.0
                raw[Feature.COS_STT] = float(np.clip(cosine, -1.0, 1.0))
        raws[sentence.id] = raw
    available = [f for f in BASE_FEATURES if f is not Feature.COS_STT or embeddings is not None]
    lo = {f: min(raws[s.id][f] for s in comment.sentences) for f in BASE_FEATURES}
    hi = {f: max(raws[s.id][f] for s in comment.sentences) for f in BASE_FEATURES}
    out = {}
    for sentence in comment.sentences:
        raw = raws[sentence.id]
        normalized = {}
        for f in BASE_FEATURES:
            span = hi[f] - lo[f]
            normalized[f] = (raw[f] - lo[f]) / span if span > 0 else 0.0
        cb = sum(normalized[f] for f in available) / len(available)
        out[sentence.id] = (raw, normalized, cb)
    return out


def oracle_select(comment, scores, feature, ratio):
    def value(s):
        raw, _, cb = scores[s.id]
        return cb if feature is Feature.CB else raw[feature]

    ranked = sorted(comment.sentences, key=lambda s: (-value(s), s.position))
    chosen = {s.id for s in ranked[: salient_count(len(comment.sentences), ratio)]}
    return [s.id for s in comment.sentences if s.id in chosen]


# --- the comparison ----------------------------------------------------------


def hexes(values):
    return [float.hex(v) for v in values]


def assert_matches_oracle(texts, title, signature_terms, embeddings, ratio=0.2):
    comment = make_comment("c1", "agree", texts)
    topic = make_topic("t1", title, [comment])
    lexicons = Lexicons(**LEXICONS, embeddings=embeddings)
    signatures = [TopicSignature(term, 20.0) for term in sorted(signature_terms)]
    scores = score_comment(comment, topic, lexicons, signatures)
    expected = oracle_scores(comment, topic, lexicons, signatures)
    rows = [expected[s.id] for s in comment.sentences]
    for f in BASE_FEATURES:
        assert hexes(scores.raw[f]) == hexes(raw[f] for raw, _, _ in rows), f
        assert hexes(scores.normalized[f]) == hexes(norm[f] for _, norm, _ in rows), f
    assert hexes(scores.cb) == hexes(cb for _, _, cb in rows)
    for feature in Feature:
        assert select_salient(comment, scores, feature, ratio) == oracle_select(
            comment, expected, feature, ratio
        ), feature


vectors = st.lists(
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False), min_size=3, max_size=3
).map(lambda v: array("d", v))
words = st.lists(st.sampled_from(VOCAB), max_size=8).map(" ".join)

EMBEDDINGS = {
    "carbon": array("d", [0.5, -1.25, 2.0]),
    "ice": array("d", [0.1, 0.2, 0.3]),
    "warming": array("d", [-3.0, 0.7, 0.0]),
    "sea": array("d", [1e-3, 2.5, -0.4]),
}


@settings(max_examples=150, deadline=None, database=None)
@given(
    texts=st.lists(words, min_size=1, max_size=7),
    title=words,
    signature_terms=st.sets(st.sampled_from(VOCAB), max_size=4),
    embeddings=st.one_of(st.none(), st.dictionaries(st.sampled_from(VOCAB), vectors)),
    ratio=st.sampled_from((0.2, 0.5, 0.9)),
)
# with and without embeddings, on a comment with repeated tokens
@example(["carbon carbon ice", "however the sea level", "zzz"], "carbon warming", {"ice"},
         EMBEDDINGS, 0.5)
@example(["carbon carbon ice", "however the sea level", "zzz"], "carbon warming", {"ice"},
         None, 0.5)
@example(["sea level warming", "the ice", "carbon"], "", {"sea"}, EMBEDDINGS, 0.5)  # empty title
@example(["sea level warming", "the ice", "carbon"], "warming", set(), None, 0.5)  # no signatures
@example(["the zzz", "however zzz the", "zzz zzz"], "warming", {"carbon"}, EMBEDDINGS, 0.5)  # term-free
@example(["zzz the", "level however"], "zzz", {"zzz"}, EMBEDDINGS, 0.9)  # out of vocabulary only
@example(["carbon warming sea"], "carbon", {"carbon"}, EMBEDDINGS, 0.2)  # one sentence
@example(["", "ice ice ice ice", "sea sea"], "ice sea", {"ice"}, {}, 0.5)  # embeddings without hits
# means whose value depends on the order the vectors add in
@example(["carbon sea ice", "ice sea carbon", "sea carbon zzz ice"], "ice carbon", {"ice"},
         {"carbon": array("d", [1e16, 1.0, 3.0]), "sea": array("d", [-1e16, 1.0, 2.0]),
          "ice": array("d", [1.0, 1e16, -2.0])}, 0.5)
def test_columns_and_selections_equal_the_per_sentence_loop(
    texts, title, signature_terms, embeddings, ratio
):
    assert_matches_oracle(texts, title, signature_terms, embeddings, ratio)


# --- ties ----------------------------------------------------------------------


# equal values, and 0.0 beside -0.0
TIED_VALUES = st.sampled_from((0.0, -0.0, 0.5, 1.0, 3.0))


@settings(max_examples=80, deadline=None, database=None)
@given(
    column=st.one_of(
        st.tuples(TIED_VALUES, st.integers(1, 8)).map(lambda vn: [vn[0]] * vn[1]),  # all equal
        st.lists(TIED_VALUES, min_size=1, max_size=8),
    ),
    ratio=st.sampled_from((0.2, 0.5, 0.9, 1.0)),
)
@example([0.5] * 6, 0.5)
@example([1.0, 0.0, 1.0, 0.0, 1.0], 0.2)  # repeated scores
@example([0.0, -0.0, 0.0, -0.0], 0.5)  # signed zeros
@example([-0.0, 0.0, -0.0, 0.0], 0.5)
@example([-0.0], 0.2)  # one sentence
@example([0.5, 3.0, 0.5, 1.0, 3.0], 1.0)
def test_selections_of_tied_columns_equal_the_oracle(column, ratio):
    """Every feature's selection from ``column`` (one value per sentence) is
    the oracle's ``(-score, position)`` pick."""
    comment = make_comment("c1", "agree", ["ice"] * len(column))
    scores = CommentScores(raw=dict.fromkeys(BASE_FEATURES, column), normalized={}, cb=column)
    expected = {
        s.id: (dict.fromkeys(BASE_FEATURES, v), None, v) for s, v in zip(comment.sentences, column)
    }
    for feature in Feature:
        assert select_salient(comment, scores, feature, ratio) == oracle_select(
            comment, expected, feature, ratio
        ), feature


# --- one feature at a time ----------------------------------------------------


def assert_one_feature_matches_full(comment, topic, lexicons, signatures):
    """For each feature, ``score_comment(..., features=(f,))`` scores f (all the
    base features CB averages, for CB) and nothing else, each column equal to
    the full call's bit for bit."""
    full = score_comment(comment, topic, lexicons, signatures)
    available = [f for f in BASE_FEATURES if f is not Feature.COS_STT or lexicons.embeddings is not None]
    for feature in Feature:
        part = score_comment(comment, topic, lexicons, signatures, features=(feature,))
        expected = available if feature is Feature.CB else [feature]
        assert list(part.raw) == list(part.normalized) == expected, feature
        for f in expected:
            assert hexes(part.raw[f]) == hexes(full.raw[f]), (feature, f)
            assert hexes(part.normalized[f]) == hexes(full.normalized[f]), (feature, f)
        if feature is Feature.CB:
            assert hexes(part.cb) == hexes(full.cb)
        else:
            assert part.cb is None
        assert hexes(part.column(feature)) == hexes(full.column(feature)), feature


@settings(max_examples=60, deadline=None, database=None)
@given(
    texts=st.lists(words, min_size=1, max_size=7),
    title=words,
    signature_terms=st.sets(st.sampled_from(VOCAB), max_size=4),
    embeddings=st.one_of(st.none(), st.dictionaries(st.sampled_from(VOCAB), vectors)),
)
@example(["carbon carbon ice", "however the sea level", "zzz"], "carbon warming", {"ice"}, EMBEDDINGS)
@example(["the zzz", "", "zzz zzz"], "", set(), None)  # term-free, empty title, no signatures
def test_one_feature_columns_equal_the_full_call(texts, title, signature_terms, embeddings):
    comment = make_comment("c1", "agree", texts)
    topic = make_topic("t1", title, [comment])
    lexicons = Lexicons(**LEXICONS, embeddings=embeddings)
    signatures = [TopicSignature(term, 20.0) for term in sorted(signature_terms)]
    assert_one_feature_matches_full(comment, topic, lexicons, signatures)


def test_one_feature_columns_equal_the_full_call_on_sample_data():
    corpus = load_corpus(SAMPLE_DIR / "corpus.json")
    for lexicons in (default_lexicons(), default_lexicons(load_embeddings(SAMPLE_DIR / "embeddings.txt"))):
        for topic in corpus:
            # at the p < 0.001 cutoff the sample topics have no signatures
            signatures = topic_signatures_for(corpus, topic, 2.0)
            assert signatures
            for comment in topic.comments:
                assert_one_feature_matches_full(comment, topic, lexicons, signatures)
