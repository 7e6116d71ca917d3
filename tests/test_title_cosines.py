"""COS_STT equals a per-sentence computation in numpy, kept here as the
oracle, bit for bit: each mean adds the sentence's (or the title's) own
vectors in sequence, and each norm and dot product adds its products in
coordinate order from 0.0, not in the order a BLAS kernel picks. Checked on
topics whose comments have different numbers of embedded tokens, on
sentences and titles with no embedded token, on 1-, 2-, 8-, 9- and
300-dimensional vectors, and on vectors read from an embeddings file."""

import math
import random
from array import array
from functools import reduce
from operator import add

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_comment, make_topic

from debatesum.saliency import Feature, Lexicons, load_embeddings, score_comment

VOCAB = ("carbon", "ice", "sea", "level", "warming", "the", "zzz", "qqq")
LEXICONS = dict(conjunctive_adverbs=frozenset(), climate_terms=frozenset())


# --- the oracle: each mean on its own, its vectors added in sequence ---------


def oracle_mean_embedding(tokens, lexicons):
    vectors = [np.asarray(lexicons.embeddings[t]) for t in tokens if t in lexicons.embeddings]
    return reduce(add, vectors) / len(vectors) if vectors else None


def dot(u, v):
    """u . v, the running sum of its products from 0.0, in coordinate order."""
    return float(np.cumsum(np.concatenate([[0.0], u * v]))[-1])


def oracle_title_cosines(comment, topic, lexicons):
    if lexicons.embeddings is None:
        return [0.0] * len(comment.sentences)
    title_emb = oracle_mean_embedding(topic.title_tokens, lexicons)
    sentence_embs = [oracle_mean_embedding(s.tokens, lexicons) for s in comment.sentences]
    if title_emb is None:
        return [0.0] * len(comment.sentences)
    title_norm = math.sqrt(dot(title_emb, title_emb))
    cosines = []
    for sent_emb in sentence_embs:
        if sent_emb is None:
            cosines.append(0.0)
            continue
        denom = math.sqrt(dot(sent_emb, sent_emb)) * title_norm
        cosine = dot(sent_emb, title_emb) / denom if denom else 0.0
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
    vector = st.lists(VALUES, min_size=dim, max_size=dim).map(lambda v: array("d", v))
    # at least one token keeps its embedding; "qqq" never has one
    return draw(st.dictionaries(st.sampled_from(VOCAB[:-1]), vector, min_size=1))


words = st.lists(st.sampled_from(VOCAB), max_size=14).map(" ".join)
cases = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(words, min_size=n, max_size=n),  # titles
    st.lists(st.lists(st.lists(words, min_size=1, max_size=4), min_size=1, max_size=4),
             min_size=n, max_size=n),  # comments of each topic, as sentence texts
))

WIDE_1D = {"carbon": array("d", [1e16]), "ice": array("d", [1.0]), "sea": array("d", [-1e16]),
           "level": array("d", [1e-300]), "warming": array("d", [-1.0])}


@settings(max_examples=150, deadline=None, database=None)
@given(case=cases, embeddings=embeddings_of())
# 1-d: the second comment's nine embedded tokens, beside the first comment's seven,
# which add to 1 in sequence but to 0 in the eight-way blocks numpy uses to reduce
# a row of nine or more
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
    embeddings={"carbon": array("d", [0.5, -1.25]), "ice": array("d", [0.1, 0.2]),
                "sea": array("d", [1e16, -1e16]), "level": array("d", [-3.0, 0.7]),
                "warming": array("d", [1.0, 1e16])},
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


# 3-d vectors under which the order of a dot product's adds shows: "carbon carbon
# the" under the title "ice warming" gives -0x1.12ec3b92cc456p-2 with its products
# added in coordinate order, where numpy's ``@`` gave ...455p-2
VECTORS_3D = {"carbon": array("d", [0.5, -1.25, 2.0]), "ice": array("d", [0.1, 0.2, 0.3]),
              "warming": array("d", [-3.0, 0.7, 0.0]), "sea": array("d", [1e-3, 2.5, -0.4])}


def test_cos_stt_adds_in_coordinate_order():
    (topic,) = build_topics((["ice warming"], [[["carbon carbon the"]]]))
    lexicons = Lexicons(**LEXICONS, embeddings=VECTORS_3D)
    column = cos_stt(topic.comments[0], topic, lexicons)
    assert hexes(column) == ["-0x1.12ec3b92cc456p-2"]
    assert hexes(column) == hexes(oracle_title_cosines(topic.comments[0], topic, lexicons))


def test_300_dimensional_vectors_from_a_file_equal_the_oracle(tmp_path):
    rng = random.Random(300)
    path = tmp_path / "vectors.txt"
    path.write_text("".join(
        word + "".join(f" {rng.uniform(-1.0, 1.0)!r}" for _ in range(300)) + "\n" for word in VOCAB[:-1]
    ), encoding="utf-8")
    embeddings = load_embeddings(path)
    assert {type(v) for v in embeddings.values()} == {array}
    assert {len(v) for v in embeddings.values()} == {300}
    case = (["carbon warming sea", "qqq"],
            [[["carbon ice sea level the", "zzz warming warming"], ["qqq", "ice"]],
             [["sea sea level", "carbon the ice warming level zzz sea"]]])
    assert_columns_match_the_oracle(case, embeddings)
