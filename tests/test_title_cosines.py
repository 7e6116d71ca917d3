"""COS_STT, computed once per topic, equals a per-sentence computation, kept
here as the oracle, bit for bit: each mean adds the sentence's (or the title's)
own vectors in sequence. Checked on topics whose comments have different
numbers of embedded tokens (so the topic's grid is wider than most sentences),
on sentences and titles with no embedded token, and on 1-, 2-, 8- and
9-dimensional vectors."""

import math
from functools import reduce
from operator import add

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_comment, make_topic

from debatesum.saliency import Feature, Lexicons, score_comment

VOCAB = ("carbon", "ice", "sea", "level", "warming", "the", "zzz", "qqq")
LEXICONS = dict(conjunctive_adverbs=frozenset(), climate_terms=frozenset())


# --- the oracle: each mean on its own, its vectors added in sequence ---------


def oracle_mean_embedding(tokens, lexicons):
    vectors = [lexicons.embeddings[t] for t in tokens if t in lexicons.embeddings]
    return reduce(add, vectors) / len(vectors) if vectors else None


def oracle_title_cosines(comment, topic, lexicons):
    if lexicons.embeddings is None:
        return [0.0] * len(comment.sentences)
    title_emb = oracle_mean_embedding(topic.title_tokens, lexicons)
    sentence_embs = [oracle_mean_embedding(s.tokens, lexicons) for s in comment.sentences]
    if title_emb is None:
        return [0.0] * len(comment.sentences)
    title_norm = math.sqrt(title_emb @ title_emb)
    cosines = []
    for sent_emb in sentence_embs:
        if sent_emb is None:
            cosines.append(0.0)
            continue
        denom = math.sqrt(sent_emb @ sent_emb) * title_norm
        cosine = float(sent_emb @ title_emb) / denom if denom else 0.0
        cosines.append(max(-1.0, min(1.0, cosine)))
    return cosines


# --- the comparison -----------------------------------------------------------


def hexes(values):
    return [float.hex(v) for v in values]


def cos_stt(comment, topic, lexicons):
    return score_comment(comment, topic, lexicons, [], (Feature.COS_STT,)).raw[Feature.COS_STT]


def build_topics(case):
    """Topics t1, t2, ... of comments made from ``case``'s texts."""
    titles, comment_texts = case
    topics = []
    for t, (title, comments) in enumerate(zip(titles, comment_texts)):
        tid = f"t{t + 1}"
        topics.append(make_topic(tid, title, [
            make_comment(f"{tid}-c{c + 1}", "agree", texts) for c, texts in enumerate(comments)
        ]))
    return topics


def assert_columns_match_the_oracle(case, embeddings):
    topics = build_topics(case)
    lexicons = Lexicons(**LEXICONS, embeddings=embeddings)
    # every comment of each topic, then the first comment of each topic again, so
    # the kept topic changes between calls and comes back
    calls = [(c, t) for t in topics for c in t.comments] + [(t.comments[0], t) for t in topics]
    for comment, topic in calls:
        expected = oracle_title_cosines(comment, topic, lexicons)
        assert hexes(cos_stt(comment, topic, lexicons)) == hexes(expected), comment.id
    # a comment that is not one of its topic's comments is scored alone
    outsider = make_comment("x-c1", "disagree", ["carbon ice sea " * 3, "zzz"])
    for topic in topics:
        expected = oracle_title_cosines(outsider, topic, lexicons)
        assert hexes(cos_stt(outsider, topic, lexicons)) == hexes(expected)


# One-dimensional sums change with the order of the adds only where they
# cancel, so the values include exact cancellations and a tiny remainder.
VALUES = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    st.sampled_from((1e16, -1e16, 1.0, -1.0, 0.0, -0.0, 1e-300)),
)


@st.composite
def embeddings_of(draw):
    dim = draw(st.sampled_from((1, 2, 8, 9)))
    vector = st.lists(VALUES, min_size=dim, max_size=dim).map(np.array)
    # at least one token keeps its embedding; "qqq" never has one
    return draw(st.dictionaries(st.sampled_from(VOCAB[:-1]), vector, min_size=1))


words = st.lists(st.sampled_from(VOCAB), max_size=14).map(" ".join)
cases = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(words, min_size=n, max_size=n),  # titles
    st.lists(st.lists(st.lists(words, min_size=1, max_size=4), min_size=1, max_size=4),
             min_size=n, max_size=n),  # comments of each topic, as sentence texts
))

WIDE_1D = {"carbon": np.array([1e16]), "ice": np.array([1.0]), "sea": np.array([-1e16]),
           "level": np.array([1e-300]), "warming": np.array([-1.0])}


@settings(max_examples=150, deadline=None, database=None)
@given(case=cases, embeddings=embeddings_of())
# 1-d: the second comment's nine embedded tokens make the topic's grid wider than
# the first comment's seven, which add to 1 in sequence but to 0 in the eight-way
# blocks numpy uses to reduce a row of nine or more
@example(
    case=(["qqq warming"],
          [[["carbon ice level ice sea ice qqq qqq level"],
            ["qqq ice ice sea qqq ice sea level warming sea carbon", "zzz"]]]),
    embeddings=WIDE_1D,
)
# a title with no embedded token, and a topic whose comments differ in width
@example(
    case=(["qqq zzz", "sea ice"],
          [[["carbon"]], [["sea"], ["carbon ice sea level warming carbon ice sea level", "qqq"]]]),
    embeddings={"carbon": np.array([0.5, -1.25]), "ice": np.array([0.1, 0.2]),
                "sea": np.array([1e16, -1e16]), "level": np.array([-3.0, 0.7]),
                "warming": np.array([1.0, 1e16])},
)
def test_per_topic_cos_stt_equals_the_per_comment_computation(case, embeddings):
    assert_columns_match_the_oracle(case, embeddings)


def test_a_sentences_cos_stt_does_not_depend_on_its_neighbours():
    """1-d vectors: a wider sentence beside it in its comment leaves the mean of
    its seven embedded tokens, and so its COS_STT, unchanged."""
    sentence = "carbon ice level ice sea ice qqq qqq level"
    neighbour = "qqq ice ice sea qqq ice sea level warming sea carbon"
    alone, beside = build_topics((["qqq warming"] * 2, [[[sentence]], [[sentence, neighbour]]]))
    lexicons = Lexicons(**LEXICONS, embeddings=WIDE_1D)
    column = cos_stt(alone.comments[0], alone, lexicons)
    assert column == [-1.0]
    assert cos_stt(beside.comments[0], beside, lexicons)[:1] == column


def test_without_embeddings_every_column_is_zero():
    topics = build_topics((["carbon ice"], [[["carbon", "ice sea"], ["sea"]]]))
    lexicons = Lexicons(**LEXICONS)
    for topic in topics:
        for comment in topic.comments:
            assert cos_stt(comment, topic, lexicons) == [0.0] * len(comment.sentences)
