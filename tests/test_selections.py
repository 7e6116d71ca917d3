"""The shared selections behind the select stage and the ROUGE table.

Each layer is checked against a naive oracle that does the work the long way
round: a token-list background per topic, and ``rouge()`` on every
(feature, variant) pair with every comment scored again.
"""

import json
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SAMPLE_DIR, make_comment, make_topic, simple_topic_dict, write_corpus_json
from oracles import default_lexicons, select_salient

import debatesum.corpus as corpus_module
import debatesum.pipeline as pipeline
from debatesum.assets import default_stopwords
from debatesum.cli import main
from debatesum.corpus import GoldAnnotation, load_corpus, load_gold
from debatesum.evalkit import RougeVariant, rouge
from debatesum.pipeline import (
    comment_selections,
    compute_rouge_table,
    compute_salient,
    load_config,
    load_inputs,
    run_pipeline,
    topic_signatures_for,
)
from debatesum.saliency import (
    LLR_THRESHOLD_P001,
    Feature,
    extract_topic_signatures,
    score_comment,
)


def list_background_signatures(corpus, topic, threshold):
    """Signatures with the background rebuilt as a token list of the other topics."""
    foreground = [t for c in topic.comments for s in c.sentences for t in s.tokens]
    background = [
        t
        for other in corpus
        if other.id != topic.id
        for c in other.comments
        for s in c.sentences
        for t in s.tokens
    ]
    if not foreground or not background:
        return []
    return extract_topic_signatures(
        foreground, background, threshold=threshold, stopwords=default_stopwords()
    )


def naive_rouge_table(corpus, gold, lexicons, ratio=0.2, threshold=LLR_THRESHOLD_P001):
    """Per-feature ROUGE with rouge() called for every (feature, variant)."""
    refs_by_comment: dict = {}
    for annotation in gold:
        refs_by_comment.setdefault(annotation.comment_id, []).append(
            annotation.selected_sentence_ids
        )
    scores = {f: {v: [] for v in RougeVariant} for f in Feature}
    for topic in corpus:
        signatures = list_background_signatures(corpus, topic, threshold)
        for comment in topic.comments:
            refs = refs_by_comment.get(comment.id)
            if not refs:
                continue
            references = [
                [t for s in comment.sentences if s.id in ids for t in s.tokens] for ids in refs
            ]
            vectors = score_comment(comment, topic, lexicons, signatures)
            for feature in Feature:
                chosen = set(select_salient(comment, vectors, feature=feature, ratio=ratio))
                system = [t for s in comment.sentences if s.id in chosen for t in s.tokens]
                for variant in RougeVariant:
                    scores[feature][variant].append(rouge(system, references, variant))
    table = {}
    for feature in Feature:
        table[feature.value] = {}
        for variant in RougeVariant:
            rows = scores[feature][variant]
            table[feature.value][variant.value] = None if not rows else {
                "recall": sum(r.recall for r in rows) / len(rows),
                "precision": sum(r.precision for r in rows) / len(rows),
                "f1": sum(r.f1 for r in rows) / len(rows),
            }
    return table


def short_comment_corpus():
    """Two topics of two- and three-sentence comments: with one salient
    sentence each, most features choose the same sentence."""
    texts = {
        "t1": [
            ["Carbon emissions warm the planet.", "However the climate models differ."],
            ["Sea level rise is measured.", "Carbon tax ideas abound.", "The ice melts."],
            ["Ice sheets shrink every year.", "Ice sheets shrink every year."],
        ],
        "t2": [
            ["Renewable energy is cheap now.", "Solar panels cover roofs."],
            ["Therefore wind power grows.", "Energy storage lags.", "Grid upgrades cost."],
        ],
    }
    topics, gold = [], []
    for tid, comments in texts.items():
        built = []
        for i, sentences in enumerate(comments):
            side = "agree" if i % 2 else "disagree"
            comment = make_comment(f"{tid}-c{i + 1}", side, sentences)
            built.append(comment)
            for annotator, pick in (("a1", 0), ("a2", -1)):
                gold.append(GoldAnnotation(
                    annotator_id=annotator,
                    comment_id=comment.id,
                    selected_sentence_ids=frozenset({comment.sentences[pick].id}),
                ))
        topics.append(make_topic(tid, f"Debate {tid} on carbon and energy", built))
    return topics, gold


class TestTopicSignatures:
    def test_sample_corpus_matches_list_background(self):
        corpus = load_corpus(SAMPLE_DIR / "corpus.json")
        counts = Counter(
            t for topic in corpus for c in topic.comments for s in c.sentences for t in s.tokens
        )
        for threshold in (1.0, LLR_THRESHOLD_P001):
            for topic in corpus:
                expected = list_background_signatures(corpus, topic, threshold)
                assert topic_signatures_for(corpus, topic, threshold) == expected
                assert topic_signatures_for(corpus, topic, threshold, counts) == expected

    def test_token_unique_to_topic(self):
        own = make_topic("t1", "Glaciers", [make_comment("t1-c1", "agree", [
            "Glaciers glaciers glaciers retreat fast.", "Glaciers feed rivers.",
        ])])
        other = make_topic("t2", "Taxes", [make_comment("t2-c1", "agree", [
            "Taxes fund rivers.", "Taxes rise fast.",
        ])])
        corpus = [own, other]
        signatures = topic_signatures_for(corpus, own, 1.0)
        assert signatures == list_background_signatures(corpus, own, 1.0)
        assert "glaciers" in {s.term for s in signatures}

    def test_stopword_list_is_read_once_per_process(self, monkeypatch):
        import debatesum.assets as assets

        reads = []
        real_read_lines = assets.read_lines

        def counting_read_lines(path):
            reads.append(path)
            return real_read_lines(path)

        monkeypatch.setattr(assets, "read_lines", counting_read_lines)
        corpus = load_corpus(SAMPLE_DIR / "corpus.json")
        for _ in range(2):
            for topic in corpus:
                topic_signatures_for(corpus, topic, 1.0)
        assert len(reads) <= 1

    def test_single_topic_corpus_has_no_signatures(self):
        topic = make_topic("t1", "Alone", [make_comment("t1-c1", "agree", ["Only one topic."])])
        assert topic_signatures_for([topic], topic, 1.0) == []
        assert list_background_signatures([topic], topic, 1.0) == []


class TestRougeTable:
    def test_sample_data_matches_naive_oracle(self):
        corpus = load_corpus(SAMPLE_DIR / "corpus.json")
        gold = load_gold(SAMPLE_DIR / "gold.json", corpus)
        lexicons = default_lexicons()
        assert compute_rouge_table(
            corpus, gold, comment_selections(corpus, lexicons)
        ) == naive_rouge_table(corpus, gold, lexicons)

    def test_sample_data_with_topic_signatures_matches_naive_oracle(self):
        """At 2.0 the sample topics have signatures, so COS_TPS and CB rank a
        column that is not all zeros (at the default 10.83 they have none)."""
        corpus = load_corpus(SAMPLE_DIR / "corpus.json")
        gold = load_gold(SAMPLE_DIR / "gold.json", corpus)
        assert all(topic_signatures_for(corpus, topic, 2.0) for topic in corpus)
        for lexicons in (default_lexicons(), load_inputs(load_config(SAMPLE_DIR / "config.json")).lexicons):
            assert compute_rouge_table(
                corpus, gold, comment_selections(corpus, lexicons, signature_threshold=2.0)
            ) == naive_rouge_table(corpus, gold, lexicons, threshold=2.0)

    def test_features_sharing_a_selection_match_naive_oracle(self):
        corpus, gold = short_comment_corpus()
        lexicons = default_lexicons()
        selections = comment_selections(corpus, lexicons)
        # the corpus is only useful if features really do share selections
        assert all(len(set(chosen.values())) < len(Feature) for chosen in selections.values())
        for ratio in (0.2, 0.6):
            assert compute_rouge_table(
                corpus, gold, comment_selections(corpus, lexicons, ratio)
            ) == naive_rouge_table(corpus, gold, lexicons, ratio=ratio)

    def test_cache_is_shared_with_compute_salient(self):
        """One run's nine-feature selections serve both the select stage and
        the ROUGE table, as ``PipelineInputs.selections`` does with gold."""
        corpus, gold = short_comment_corpus()
        lexicons = default_lexicons()
        selections = comment_selections(corpus, lexicons)
        salient = compute_salient(corpus, selections, Feature.TT)
        assert compute_rouge_table(corpus, gold, selections) == naive_rouge_table(
            corpus, gold, lexicons
        )
        assert salient == compute_salient(
            corpus, comment_selections(corpus, lexicons, features=(Feature.TT,)), Feature.TT
        )


WORDS = ("ice", "sea", "carbon", "tax", "the")
# sentences of zero to three tokens ("..." has none)
SENTENCE_TEXTS = st.lists(st.sampled_from(WORDS), max_size=3).map(
    lambda words: " ".join(words) + "." if words else "..."
)
# a reference: the sentences a feature selects, the others, or any subset
REFERENCE_SPECS = st.one_of(
    st.tuples(st.sampled_from(["selection", "complement"]), st.sampled_from(list(Feature))),
    st.tuples(st.just("subset"), st.lists(st.booleans(), max_size=8).map(tuple)),
)


@st.composite
def gold_corpora(draw):
    """Two topics of short comments, and per comment up to three reference specs."""
    corpus, specs = [], {}
    for t in (1, 2):
        comments = []
        for c in range(1, draw(st.integers(1, 3)) + 1):
            texts = draw(st.lists(SENTENCE_TEXTS, min_size=1, max_size=8))
            comment = make_comment(f"t{t}-c{c}", "agree" if c % 2 else "disagree", texts)
            comments.append(comment)
            specs[comment.id] = draw(st.lists(REFERENCE_SPECS, max_size=3))
        corpus.append(make_topic(f"t{t}", "Debate on carbon and ice", comments))
    return corpus, specs


def one_token_sentences_case():
    """SU4 windows over runs of one-token sentences, with an empty one among them."""
    texts = ["Ice.", "Sea.", "...", "Ice.", "The.", "Carbon.", "Ice.", "Tax."]
    corpus = [
        make_topic("t1", "Ice", [make_comment("t1-c1", "agree", texts)]),
        make_topic("t2", "Tax", [make_comment("t2-c1", "disagree", ["The tax.", "Sea ice."])]),
    ]
    specs = {
        "t1-c1": [("selection", Feature.SP), ("complement", Feature.SP), ("subset", (True,) * 8)],
        "t2-c1": [("subset", (False, True))],
    }
    return corpus, specs


def tokenless_comment_case():
    """A comment whose sentences have no tokens, so every sequence scored
    for it is empty, beside a comment with tokens."""
    corpus = [
        make_topic("t1", "Ice", [make_comment("t1-c1", "agree", ["...", "...", "..."])]),
        make_topic("t2", "Tax", [make_comment("t2-c1", "disagree", ["The tax.", "Sea ice."])]),
    ]
    specs = {
        "t1-c1": [("selection", Feature.SP), ("complement", Feature.SP), ("subset", (True,) * 3)],
        "t2-c1": [("subset", (True, False))],
    }
    return corpus, specs


@settings(max_examples=40, deadline=None, database=None)
@given(case=gold_corpora(), ratio=st.sampled_from([0.2, 0.5, 0.9]))
@example(case=one_token_sentences_case(), ratio=0.5)
@example(case=tokenless_comment_case(), ratio=0.5)
def test_rouge_table_matches_naive_oracle_on_generated_comments(case, ratio):
    corpus, specs = case
    lexicons = default_lexicons()
    selections = comment_selections(corpus, lexicons, ratio)
    gold = []
    for topic in corpus:
        for comment in topic.comments:
            ids = [s.id for s in comment.sentences]
            for k, (kind, arg) in enumerate(specs[comment.id]):
                if kind == "subset":
                    chosen = {sid for sid, keep in zip(ids, arg) if keep}
                else:
                    chosen = set(selections[comment.id][arg])
                    if kind == "complement":
                        chosen = set(ids) - chosen
                gold.append(GoldAnnotation(f"a{k}", comment.id, frozenset(chosen)))
    assert compute_rouge_table(corpus, gold, selections) == naive_rouge_table(
        corpus, gold, lexicons, ratio=ratio
    )


def test_pipeline_scores_each_comment_once_and_each_topic_once(tmp_path, monkeypatch):
    scored: Counter = Counter()
    signed: Counter = Counter()
    real_score, real_signatures = pipeline.score_comment, pipeline.topic_signatures_for

    def counting_score(comment, *args, **kwargs):
        scored[comment.id] += 1
        return real_score(comment, *args, **kwargs)

    def counting_signatures(corpus, topic, *args, **kwargs):
        signed[topic.id] += 1
        return real_signatures(corpus, topic, *args, **kwargs)

    monkeypatch.setattr(pipeline, "score_comment", counting_score)
    monkeypatch.setattr(pipeline, "topic_signatures_for", counting_signatures)
    config = load_config(SAMPLE_DIR / "config.json", {"output_dir": str(tmp_path)})
    assert config.gold_path is not None
    run_pipeline(config)

    corpus = load_corpus(config.corpus_path)
    assert scored == Counter(c.id for topic in corpus for c in topic.comments)
    assert signed == Counter(topic.id for topic in corpus)


def test_selection_counts_each_topic_once(monkeypatch):
    """The corpus counts for topic signatures are the sum of the topics' own:
    every topic's tokens are counted once, and the corpus's never apart."""
    counted: Counter = Counter()
    real_counts = pipeline._token_counts

    def counting_counts(topics):
        counted[tuple(topic.id for topic in topics)] += 1
        return real_counts(topics)

    monkeypatch.setattr(pipeline, "_token_counts", counting_counts)
    corpus = load_corpus(SAMPLE_DIR / "corpus.json")
    comment_selections(corpus, default_lexicons(), 0.2, 2.0)
    assert counted == Counter((topic.id,) for topic in corpus)


def test_pipeline_tokenizes_each_sentence_and_each_title_once(tmp_path, monkeypatch):
    """Each sentence is tokenized when the corpus loads, and each topic's
    title once, however many of its comments are scored."""
    corpus = load_corpus(SAMPLE_DIR / "corpus.json")
    tokenized: Counter = Counter()
    real_tokenize = corpus_module.tokenize

    def counting_tokenize(text):
        tokenized[text] += 1
        return real_tokenize(text)

    monkeypatch.setattr(corpus_module, "tokenize", counting_tokenize)
    run_pipeline(load_config(SAMPLE_DIR / "config.json", {"output_dir": str(tmp_path)}))
    assert tokenized == Counter(
        s.text for topic in corpus for c in topic.comments for s in c.sentences
    ) + Counter(topic.title for topic in corpus)


@pytest.mark.parametrize("feature", list(Feature))
def test_compute_salient_matches_per_feature_selection(feature):
    corpus = load_corpus(SAMPLE_DIR / "corpus.json")
    lexicons = default_lexicons()
    doc = compute_salient(corpus, comment_selections(corpus, lexicons, features=(feature,)), feature)
    for topic, topic_doc in zip(corpus, doc["topics"]):
        signatures = list_background_signatures(corpus, topic, LLR_THRESHOLD_P001)
        for comment, comment_doc in zip(topic.comments, topic_doc["comments"]):
            vectors = score_comment(comment, topic, lexicons, signatures)
            assert comment_doc["sentence_ids"] == select_salient(comment, vectors, feature=feature)


@pytest.mark.parametrize("feature", list(Feature))
def test_compute_salient_is_the_same_with_and_without_a_cache(feature):
    """From selections of ``feature`` alone, and from the nine features'
    selections that a run with gold shares with its ROUGE table."""
    corpus = load_corpus(SAMPLE_DIR / "corpus.json")
    for lexicons in (default_lexicons(), load_inputs(load_config(SAMPLE_DIR / "config.json")).lexicons):
        for threshold in (LLR_THRESHOLD_P001, 2.0):  # the sample topics have signatures at 2.0
            alone, shared = (
                comment_selections(corpus, lexicons, 0.2, threshold, features)
                for features in ((feature,), tuple(Feature))
            )
            assert compute_salient(corpus, alone, feature) == compute_salient(corpus, shared, feature)


@settings(max_examples=25, deadline=None, database=None)
@given(case=gold_corpora(), ratio=st.sampled_from([0.2, 0.5, 0.9]))
@example(case=tokenless_comment_case(), ratio=0.5)
def test_compute_salient_is_the_same_with_and_without_a_cache_on_generated_comments(case, ratio):
    corpus, _ = case
    lexicons = default_lexicons()
    shared = comment_selections(corpus, lexicons, ratio, 1.0)
    for feature in Feature:
        alone = comment_selections(corpus, lexicons, ratio, 1.0, (feature,))
        assert compute_salient(corpus, alone, feature, ratio) == compute_salient(
            corpus, shared, feature, ratio
        ), feature


def count_scoring(tmp_path, monkeypatch, argv, feature, gold):
    """Run the CLI command ``argv`` on the sample inputs with ``feature``
    configured, with or without its gold file. Returns the times each
    comment was scored, the feature tuples asked for, and the times each
    topic's signatures were computed."""
    scored: Counter = Counter()
    requested: set = set()
    signed: Counter = Counter()
    real_score, real_signatures = pipeline.score_comment, pipeline.topic_signatures_for

    def counting_score(comment, topic, lexicons, signatures, features):
        scored[comment.id] += 1
        requested.add(tuple(features))
        return real_score(comment, topic, lexicons, signatures, features)

    def counting_signatures(corpus, topic, *args, **kwargs):
        signed[topic.id] += 1
        return real_signatures(corpus, topic, *args, **kwargs)

    monkeypatch.setattr(pipeline, "score_comment", counting_score)
    monkeypatch.setattr(pipeline, "topic_signatures_for", counting_signatures)
    raw = json.loads((SAMPLE_DIR / "config.json").read_text(encoding="utf-8"))
    if not gold:
        del raw["gold_path"]
    raw.update(
        {k: str(SAMPLE_DIR / v) for k, v in raw.items() if k.endswith("_path")},
        feature=feature.value,
        output_dir=str(tmp_path / "out"),
    )
    (tmp_path / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    assert main([*argv, "--config", str(tmp_path / "config.json")]) == 0
    return scored, requested, signed


@pytest.mark.parametrize("command", ["pipeline", "select"])
@pytest.mark.parametrize("feature", [Feature.SP, Feature.COS_TTS, Feature.COS_TPS, Feature.CB])
def test_gold_less_runs_score_only_the_configured_feature(tmp_path, monkeypatch, command, feature):
    """With no ROUGE table to build, each comment is scored once for the
    configured feature, and topic signatures are computed (once per topic)
    only for a feature that reads them."""
    scored, requested, signed = count_scoring(tmp_path, monkeypatch, [command], feature, gold=False)
    corpus = load_corpus(SAMPLE_DIR / "corpus.json")
    assert scored == Counter(c.id for topic in corpus for c in topic.comments)
    assert requested == {(feature,)}
    reads_signatures = feature in (Feature.COS_TPS, Feature.CB)
    assert signed == (Counter(topic.id for topic in corpus) if reads_signatures else Counter())


@pytest.mark.parametrize("argv, all_nine", [
    (["select"], False),  # gold in the config, but select builds no ROUGE table
    (["eval", "rouge"], True),
    (["pipeline"], True),
])
def test_runs_with_gold_score_the_features_they_read(tmp_path, monkeypatch, argv, all_nine):
    """Each comment is scored once: for all nine features where the ROUGE
    table is built, and for the configured feature alone by a staged select,
    even though its config names a gold file."""
    scored, requested, signed = count_scoring(tmp_path, monkeypatch, argv, Feature.COS_TTS, gold=True)
    corpus = load_corpus(SAMPLE_DIR / "corpus.json")
    assert scored == Counter(c.id for topic in corpus for c in topic.comments)
    assert requested == {tuple(Feature) if all_nine else (Feature.COS_TTS,)}
    assert signed == (Counter(topic.id for topic in corpus) if all_nine else Counter())


def test_cos_ccts_reads_the_config_gazetteer(tmp_path):
    """COS_CCTS scores against the config's gazetteer, not the packaged term list."""
    (tmp_path / "gazetteer.txt").write_text("zorblax\n", encoding="utf-8")
    (tmp_path / "synonyms.tsv").write_text("", encoding="utf-8")
    topic = simple_topic_dict(n_comments=1, n_sentences=3)
    topic["comments"][0]["sentences"][1]["text"] = "The zorblax grows."
    write_corpus_json(tmp_path / "corpus.json", [topic])
    (tmp_path / "config.json").write_text(json.dumps({
        "corpus_path": "corpus.json", "gazetteer_path": "gazetteer.txt",
        "synonyms_path": "synonyms.tsv", "output_dir": "out",
    }))
    inputs = load_inputs(load_config(tmp_path / "config.json"), (Feature.COS_CCTS,))
    assert ("zorblax",) not in default_lexicons().climate_terms
    comment = inputs.corpus[0].comments[0]
    scores = score_comment(comment, inputs.corpus[0], inputs.lexicons, [])
    assert scores.raw[Feature.COS_CCTS][1] > 0.0  # sentence t1-c1-s2
    # one of three sentences is selected; with every score 0 it would be the first
    doc = compute_salient(inputs.corpus, inputs.selections, Feature.COS_CCTS, ratio=0.2)
    assert doc["topics"][0]["comments"][0]["sentence_ids"] == ["t1-c1-s2"]
