import json

import pytest

from debatesum.corpus import (
    GoldCountWarning,
    load_corpus,
    load_gold,
    salient_count,
    tokenize,
)
from debatesum.errors import ParseError, ValidationError

from conftest import simple_topic_dict, write_corpus_json


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Global warming is REAL.") == ["global", "warming", "is", "real"]

    def test_empty(self):
        assert tokenize("") == []

    def test_hyphens_and_unicode(self):
        assert tokenize("sea-level rise, 2°C") == ["sea-level", "rise", "2", "c"]

    def test_idempotent(self):
        samples = [
            "Global warming is REAL.",
            "sea-level rise, 2°C",
            "co2... and CO2, plus x_y and a--b!",
            " Énergie renouvelable?",
        ]
        for text in samples:
            tokens = tokenize(text)
            assert tokenize(" ".join(tokens)) == tokens


class TestSalientCount:
    @pytest.mark.parametrize("n,expected", [(10, 2), (3, 1), (1, 1), (5, 1), (6, 2), (11, 3)])
    def test_ceil_rule(self, n, expected):
        assert salient_count(n) == expected


class TestLoadCorpus:
    def test_sample_corpus(self, sample_corpus_path):
        topics = load_corpus(sample_corpus_path)
        assert len(topics) == 2
        assert sum(len(t.comments) for t in topics) == 10
        for topic in topics:
            for comment in topic.comments:
                for sentence in comment.sentences:
                    assert sentence.tokens == tuple(tokenize(sentence.text))

    def test_equal_tokens_are_one_object(self, sample_corpus_path):
        # a corpus repeats few distinct tokens: each is held once, not once per sentence
        tokens = [
            token
            for topic in load_corpus(sample_corpus_path)
            for comment in topic.comments
            for sentence in comment.sentences
            for token in sentence.tokens
        ]
        assert len({id(token) for token in tokens}) == len(set(tokens)) < len(tokens)

    def test_dataset_scale_counts(self, tmp_path):
        # the real dataset's shape: 11 topics, 341 comments in total
        sizes = [31, 5, 103, 20, 25, 30, 28, 22, 26, 24, 27]
        assert sum(sizes) == 341
        topics = [
            simple_topic_dict(f"t{i + 1}", n_comments=n, n_sentences=3)
            for i, n in enumerate(sizes)
        ]
        path = write_corpus_json(tmp_path / "c.json", topics)
        loaded = load_corpus(path)
        assert len(loaded) == 11
        assert sum(len(t.comments) for t in loaded) == 341

    def test_empty_comment_list_rejected(self, tmp_path):
        path = write_corpus_json(
            tmp_path / "c.json", [{"id": "t1", "title": "x", "comments": []}]
        )
        with pytest.raises(ValidationError):
            load_corpus(path)

    def test_noncontiguous_positions_rejected(self, tmp_path):
        topic = simple_topic_dict()
        topic["comments"][0]["sentences"][1]["position"] = 3
        path = write_corpus_json(tmp_path / "c.json", [topic])
        with pytest.raises(ValidationError):
            load_corpus(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        t1 = simple_topic_dict("t1")
        t2 = simple_topic_dict("t1")
        path = write_corpus_json(tmp_path / "c.json", [t1, t2])
        with pytest.raises(ValidationError):
            load_corpus(path)

    def test_unknown_side_rejected(self, tmp_path):
        topic = simple_topic_dict()
        topic["comments"][0]["side"] = "neutral"
        path = write_corpus_json(tmp_path / "c.json", [topic])
        with pytest.raises(ValidationError) as err:
            load_corpus(path)
        assert "side" in str(err.value)

    def test_malformed_schema_names_record(self, tmp_path):
        topic = simple_topic_dict()
        del topic["comments"][0]["sentences"][0]["text"]
        path = write_corpus_json(tmp_path / "c.json", [topic])
        with pytest.raises(ParseError) as err:
            load_corpus(path)
        assert "t1-c1-s1" in str(err.value)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_corpus(path)


class TestLoadGold:
    def test_sample_gold(self, sample_corpus_path, sample_dir):
        corpus = load_corpus(sample_corpus_path)
        gold = load_gold(sample_dir / "gold.json", corpus)
        assert len(gold) == 30
        by_comment = {}
        for g in gold:
            by_comment.setdefault(g.comment_id, []).append(g.annotator_id)
        assert all(len(v) == 3 for v in by_comment.values())

    def test_accepts_matching_count(self, tmp_path):
        # 10-sentence comment, 2 selected: the documented 20% case
        topic = simple_topic_dict(n_comments=1, n_sentences=10)
        corpus_path = write_corpus_json(tmp_path / "c.json", [topic])
        corpus = load_corpus(corpus_path)
        gold_path = tmp_path / "g.json"
        gold_path.write_text(
            json.dumps(
                {
                    "annotations": [
                        {
                            "annotator_id": "a1",
                            "comment_id": "t1-c1",
                            "selected": ["t1-c1-s1", "t1-c1-s2"],
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gold = load_gold(gold_path, corpus)
        assert len(gold) == 1

    def test_count_mismatch_warns_not_fails(self, tmp_path):
        topic = simple_topic_dict(n_comments=1, n_sentences=10)
        corpus = load_corpus(write_corpus_json(tmp_path / "c.json", [topic]))
        gold_path = tmp_path / "g.json"
        gold_path.write_text(
            json.dumps(
                {
                    "annotations": [
                        {"annotator_id": "a1", "comment_id": "t1-c1", "selected": ["t1-c1-s1"]}
                    ]
                }
            ),
            encoding="utf-8",
        )
        with pytest.warns(GoldCountWarning):
            gold = load_gold(gold_path, corpus)
        assert len(gold) == 1

    def test_dangling_sentence_id_rejected(self, tmp_path):
        topic = simple_topic_dict(n_comments=1, n_sentences=3)
        corpus = load_corpus(write_corpus_json(tmp_path / "c.json", [topic]))
        gold_path = tmp_path / "g.json"
        gold_path.write_text(
            json.dumps(
                {
                    "annotations": [
                        {"annotator_id": "a1", "comment_id": "t1-c1", "selected": ["missing"]}
                    ]
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ValidationError):
            load_gold(gold_path, corpus)

    @pytest.mark.parametrize("entry", [["t1-c1-s1"], {"a": 1}, 3])
    def test_selected_entry_that_is_not_a_string_rejected(self, tmp_path, entry):
        topic = simple_topic_dict(n_comments=1, n_sentences=3)
        corpus = load_corpus(write_corpus_json(tmp_path / "c.json", [topic]))
        gold_path = tmp_path / "g.json"
        gold_path.write_text(
            json.dumps(
                {"annotations": [{"annotator_id": "a1", "comment_id": "t1-c1", "selected": [entry]}]}
            ),
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="a1/t1-c1"):
            load_gold(gold_path, corpus)

    def test_three_sentence_comment_one_selection_ok(self, tmp_path):
        topic = simple_topic_dict(n_comments=1, n_sentences=3)
        corpus = load_corpus(write_corpus_json(tmp_path / "c.json", [topic]))
        gold_path = tmp_path / "g.json"
        gold_path.write_text(
            json.dumps(
                {
                    "annotations": [
                        {"annotator_id": "a1", "comment_id": "t1-c1", "selected": ["t1-c1-s2"]}
                    ]
                }
            ),
            encoding="utf-8",
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gold = load_gold(gold_path, corpus)
        assert gold[0].selected_sentence_ids == frozenset({"t1-c1-s2"})
