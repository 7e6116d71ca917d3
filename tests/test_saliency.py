import math
from array import array
from collections import Counter
from functools import reduce
from operator import add

import numpy as np
import pytest

from conftest import make_comment, make_topic
from oracles import compensated_sum, default_lexicons, select_salient

from debatesum import saliency
from debatesum.errors import ComputationError, ParseError
from debatesum.pipeline import comment_selections
from debatesum.saliency import (
    Feature,
    LLR_THRESHOLD_P001,
    Lexicons,
    TopicSignature,
    extract_topic_signatures,
    load_embeddings,
    log_likelihood_ratio,
    score_comment,
)


def plain_lexicons(**kwargs) -> Lexicons:
    defaults = dict(conjunctive_adverbs=frozenset(), climate_terms=frozenset(), embeddings=None)
    defaults.update(kwargs)
    return Lexicons(**defaults)


class TestLogLikelihoodRatio:
    def test_identical_relative_frequency_is_zero(self):
        assert log_likelihood_ratio(10, 100, 100, 1000) == 0.0

    def test_strong_foreground_term(self):
        # frozen from an independent evaluation of the binomial LLR formula
        stat = log_likelihood_ratio(50, 100, 1, 1000)
        assert stat == pytest.approx(258.4205560404504, abs=1e-9)
        assert stat > LLR_THRESHOLD_P001

    def test_nonnegative_on_random_tables(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n1 = int(rng.integers(1, 200))
            n2 = int(rng.integers(1, 200))
            k1 = int(rng.integers(0, n1 + 1))
            k2 = int(rng.integers(0, n2 + 1))
            assert log_likelihood_ratio(k1, n1, k2, n2) >= 0.0

    def test_matches_chi_squared_oracle_at_threshold(self):
        # LLR is asymptotically chi^2(1): the 10.83 cutoff is the p<0.001
        # critical value, so a just-significant term must clear it while an
        # clearly-balanced term must not.
        included = extract_topic_signatures(
            ["warming"] * 50 + ["x"] * 50,
            ["warming"] * 1 + ["x"] * 999,
            threshold=LLR_THRESHOLD_P001,
        )
        assert [s.term for s in included] == ["warming"]


class TestExtractTopicSignatures:
    def test_identical_distribution_excluded(self):
        fg = ["a"] * 10 + ["b"] * 90
        bg = ["a"] * 100 + ["b"] * 900
        assert extract_topic_signatures(fg, bg, threshold=1.0) == []

    def test_empty_foreground_is_error(self):
        with pytest.raises(ComputationError):
            extract_topic_signatures([], ["a"], threshold=1.0)

    def test_sorted_descending(self):
        fg = ["hot"] * 40 + ["warm"] * 10 + ["x"] * 50
        bg = ["hot"] * 2 + ["warm"] * 2 + ["x"] * 996
        sigs = extract_topic_signatures(fg, bg, threshold=5.0)
        llrs = [s.llr for s in sigs]
        assert llrs == sorted(llrs, reverse=True)
        assert sigs[0].term == "hot"

    def test_stopwords_removed_from_candidates(self):
        fg = ["the"] * 50 + ["warming"] * 50
        bg = ["the"] * 5 + ["warming"] * 5 + ["x"] * 990
        sigs = extract_topic_signatures(fg, bg, threshold=5.0, stopwords=frozenset({"the"}))
        assert "the" not in {s.term for s in sigs}
        assert "warming" in {s.term for s in sigs}

    def test_background_only_term_never_a_candidate(self):
        sigs = extract_topic_signatures(["a"] * 10, ["b"] * 100, threshold=1.0)
        assert {s.term for s in sigs} == {"a"}


class TestScoreFeatures:
    def make_simple(self):
        comment = make_comment(
            "c1",
            "agree",
            [
                "Global warming is real.",
                "However, ice melts fast.",
                "Nothing to see here at all in this very long sentence.",
            ],
        )
        topic = make_topic("t1", "Global warming", [comment])
        return comment, topic

    def test_sp_first_sentence_is_one(self):
        comment, topic = self.make_simple()
        scores = score_comment(comment, topic, plain_lexicons(), [])
        sp = scores.raw[Feature.SP]
        assert sp[0] == 1.0
        assert sp == sorted(sp, reverse=True)

    def test_zero_title_overlap(self):
        comment, _ = self.make_simple()
        topic = make_topic("t1", "economy policy", [comment])
        scores = score_comment(comment, topic, plain_lexicons(), [])
        assert scores.raw[Feature.TT][2] == 0.0
        assert scores.raw[Feature.COS_TTS][2] == 0.0

    def test_identical_binary_vectors_give_cosine_one(self):
        comment = make_comment("c1", "agree", ["global warming", "other words entirely"])
        topic = make_topic("t1", "global warming", [comment])
        scores = score_comment(comment, topic, plain_lexicons(), [])
        assert scores.raw[Feature.COS_TTS][0] == pytest.approx(1.0)

    def test_tt_fraction(self):
        comment = make_comment("c1", "agree", ["global warming is real", "unrelated"])
        topic = make_topic("t1", "global warming hoax", [comment])
        scores = score_comment(comment, topic, plain_lexicons(), [])
        assert scores.raw[Feature.TT][0] == pytest.approx(2 / 3)

    def test_cj_prefix(self):
        comment, topic = self.make_simple()
        lex = plain_lexicons(conjunctive_adverbs=frozenset({("however",)}))
        scores = score_comment(comment, topic, lex, [])
        assert scores.raw[Feature.CJ][:2] == [0.0, 1.0]

    def test_signature_cosine(self):
        comment, topic = self.make_simple()
        sigs = [TopicSignature("warming", 20.0), TopicSignature("ice", 15.0)]
        scores = score_comment(comment, topic, plain_lexicons(), sigs)
        # s1 tokens: global warming is real; one of two signature terms present
        counts = Counter(["global", "warming", "is", "real"])
        expected = 1 / (math.sqrt(4) * math.sqrt(2))
        assert scores.raw[Feature.COS_TPS][0] == pytest.approx(expected)

    def test_normalized_in_unit_interval_and_cb_mean(self):
        comment, topic = self.make_simple()
        scores = score_comment(comment, topic, default_lexicons(), [])
        for column in scores.normalized.values():
            assert len(column) == len(comment.sentences)
            assert all(0.0 <= value <= 1.0 for value in column)
        assert all(0.0 <= value <= 1.0 for value in scores.cb)

    def test_cos_stt_zero_without_embeddings(self):
        comment, topic = self.make_simple()
        scores = score_comment(comment, topic, plain_lexicons(), [])
        assert scores.raw[Feature.COS_STT] == [0.0] * len(comment.sentences)

    def test_cos_stt_with_embeddings(self):
        comment = make_comment("c1", "agree", ["global warming", "economy stuff"])
        topic = make_topic("t1", "global warming", [comment])
        emb = {
            "global": np.array([1.0, 0.0]),
            "warming": np.array([0.0, 1.0]),
            "economy": np.array([-1.0, 0.0]),
            "stuff": np.array([0.0, -1.0]),
        }
        scores = score_comment(comment, topic, plain_lexicons(embeddings=emb), [])
        assert scores.raw[Feature.COS_STT] == [pytest.approx(1.0), pytest.approx(-1.0)]

    def test_all_oov_sentence_scores_zero(self):
        comment = make_comment("c1", "agree", ["global warming", "zzz qqq"])
        topic = make_topic("t1", "global warming", [comment])
        emb = {"global": np.array([1.0, 0.0]), "warming": np.array([0.0, 1.0])}
        scores = score_comment(comment, topic, plain_lexicons(embeddings=emb), [])
        assert scores.raw[Feature.COS_STT][1] == 0.0

    def test_cb_excludes_cos_stt_when_embeddings_absent(self):
        comment = make_comment("c1", "agree", ["global warming", "other words"])
        topic = make_topic("t1", "global warming", [comment])
        scores = score_comment(comment, topic, plain_lexicons(), [])
        # 7 available features; normalized TT/COS_TTS/COS_CCTS/SP/SL/CJ/COS_TPS
        expected = sum(
            scores.normalized[f][0] for f in Feature
            if f not in (Feature.CB, Feature.COS_STT)
        ) / 7
        assert scores.cb[0] == pytest.approx(expected)
        assert scores.column(Feature.CB) is scores.cb


class TestSelectSalient:
    def comment_of(self, n: int):
        comment = make_comment("c1", "agree", [f"Sentence number {i}." for i in range(1, n + 1)])
        topic = make_topic("t1", "irrelevant title", [comment])
        return comment, topic

    def test_ten_sentences_two_selected(self):
        comment, topic = self.comment_of(10)
        scores = score_comment(comment, topic, plain_lexicons(), [])
        assert len(select_salient(comment, scores, Feature.SP)) == 2

    def test_sp_selects_the_prefix(self):
        for n in (1, 2, 3, 5, 7, 10, 13):
            comment, topic = self.comment_of(n)
            scores = score_comment(comment, topic, plain_lexicons(), [])
            selected = select_salient(comment, scores, Feature.SP)
            expected = [s.id for s in comment.sentences[: len(selected)]]
            assert selected == expected

    def test_equal_scores_tie_break_by_position(self):
        comment, topic = self.comment_of(5)
        scores = score_comment(comment, topic, plain_lexicons(), [])
        selected = select_salient(comment, scores, Feature.CJ)  # all CJ raw = 0
        assert selected == ["c1-s1"]

    def test_selection_count_invariant(self):
        for n in range(1, 14):
            for ratio in (0.2, 0.5, 1.0):
                comment, topic = self.comment_of(n)
                scores = score_comment(comment, topic, plain_lexicons(), [])
                selected = select_salient(comment, scores, Feature.SL, ratio=ratio)
                assert len(selected) == max(1, math.ceil(ratio * n))

    def test_output_ordered_by_position(self):
        comment, topic = self.comment_of(10)
        scores = score_comment(comment, topic, plain_lexicons(), [])
        selected = select_salient(comment, scores, Feature.SL, ratio=0.5)
        positions = [int(sid.rsplit("s", 1)[1]) for sid in selected]
        assert positions == sorted(positions)

    def test_bad_ratio_rejected(self):
        comment, topic = self.comment_of(3)
        scores = score_comment(comment, topic, plain_lexicons(), [])
        for ratio in (0.0, -0.2, 1.5, math.nan):
            with pytest.raises(ComputationError):
                select_salient(comment, scores, Feature.SP, ratio=ratio)
            with pytest.raises(ComputationError):  # the pipeline's selections rank the same way
                comment_selections([topic], plain_lexicons(), ratio)


class TestLoadEmbeddings:
    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\nfoo 1 2 3\nbar 4 5 6\n", encoding="utf-8")
        emb = load_embeddings(path)
        assert set(emb) == {"foo", "bar"}
        assert emb["foo"].tolist() == [1.0, 2.0, 3.0]

    def test_no_header(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("foo 1 2 3\nbar 4 5 6\n", encoding="utf-8")
        assert len(load_embeddings(path)) == 2

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("foo 1 2 3\nbar 4 5\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_embeddings(path)

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n", "3 8\n"], ids=["empty", "blank", "header"])
    def test_file_without_vectors_rejected(self, tmp_path, text):
        path = tmp_path / "vec.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="holds no vectors") as err:
            load_embeddings(path)
        assert err.value.source == str(path)

    def test_sample_asset(self, sample_dir):
        emb = load_embeddings(sample_dir / "embeddings.txt")
        assert {type(v) for v in emb.values()} == {array}
        assert {len(v) for v in emb.values()} == {8}


def test_cb_adds_left_to_right(monkeypatch):
    # builtin sum() of floats compensates from Python 3.12 on; CB adds left to right
    texts = [
        "global warming is real and the sea rises", "however the economy matters",
        "carbon tax now", "we need renewable energy sources today",
        "climate change hurts the poor countries most", "nothing",
        "emissions from coal plants are rising fast in asia", "the ice melts",
        "moreover the debate is old", "sea level rise and floods",
    ]
    comment = make_comment("c1", "agree", texts)
    topic = make_topic("t1", "global warming climate", [comment])
    monkeypatch.setattr(saliency, "sum", compensated_sum, raising=False)
    scores = score_comment(comment, topic, default_lexicons(), [], [Feature.CB])
    rows = list(zip(*scores.normalized.values()))
    assert len(rows[0]) == 7  # the base features but COS_STT, in order
    assert any(compensated_sum(row) != reduce(add, row, 0.0) for row in rows)
    assert scores.cb == [reduce(add, row, 0.0) / 7 for row in rows]
