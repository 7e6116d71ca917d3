import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import default_gazetteer_path, default_synonyms_path

from debatesum.annotate import (
    Gazetteer,
    SynonymTable,
    TermAnnotation,
    annotate_sentence,
    canonical_label,
    load_gazetteer,
    load_synonyms,
)
from debatesum.corpus import Sentence
from debatesum.errors import ParseError, ValidationError


def sent(text: str) -> Sentence:
    return Sentence.make("s1", 1, text)


class TestGazetteer:
    def test_shipped_asset_has_64_terms(self):
        gazetteer = load_gazetteer(default_gazetteer_path())
        assert len(gazetteer.terms) == 64

    def test_normalization_collapses_duplicates(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("Global Warming\nglobal warming\n", encoding="utf-8")
        assert len(load_gazetteer(path).terms) == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# just a comment\n\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_gazetteer(path)


class TestAnnotateSentence:
    def test_direct_match(self):
        gaz = Gazetteer({("global", "warming")})
        anns = annotate_sentence(sent("Global warming is real"), gaz)
        assert [(a.term, a.start, a.end) for a in anns] == [("global warming", 0, 2)]

    def test_longest_match_wins(self):
        gaz = Gazetteer({("ice",), ("sea", "ice")})
        anns = annotate_sentence(sent("sea ice extent"), gaz)
        assert [a.term for a in anns] == ["sea ice"]

    def test_no_match(self):
        gaz = Gazetteer({("ozone",)})
        assert annotate_sentence(sent("nothing relevant here"), gaz) == []

    def test_spans_non_overlapping_and_sorted(self):
        gaz = load_gazetteer(default_gazetteer_path())
        s = sent(
            "Global warming melts sea ice, raises the sea level and the carbon dioxide "
            "from fossil fuel use adds a greenhouse gas burden."
        )
        anns = annotate_sentence(s, gaz)
        assert len(anns) >= 4
        for first, second in zip(anns, anns[1:]):
            assert first.end <= second.start
        for a in anns:
            assert " ".join(s.tokens[a.start : a.end]) == a.term


def oracle_annotate(sentence, gazetteer):
    """The greedy loop that tries ``match_at`` at every token."""
    annotations = []
    tokens = sentence.tokens
    i = 0
    while i < len(tokens):
        match = gazetteer.match_at(tokens, i)
        if match is None:
            i += 1
            continue
        term, end = match
        annotations.append(TermAnnotation(sentence.id, term, i, end))
        i = end
    return annotations


# nested terms (sea level / sea level rise), terms that start inside a longer
# match (level rise, rise of sea), and one-token terms met inside others
TERMS = (
    ("sea",), ("sea", "level"), ("sea", "level", "rise"), ("level", "rise"), ("rise",),
    ("rise", "of", "sea"), ("ice",), ("sea", "ice"), ("ice", "sheet", "loss"),
    ("a", "b", "c", "d", "e"), ("b", "c"), ("c", "d", "e"),
)
TOKENS = ("sea", "level", "rise", "of", "ice", "sheet", "loss", "a", "b", "c", "d", "e", "the")


@settings(max_examples=200, deadline=None, database=None)
@given(
    terms=st.sets(st.sampled_from(TERMS), min_size=1),
    tokens=st.lists(st.sampled_from(TOKENS), max_size=30),
)
@example(terms=set(TERMS), tokens=["sea", "level", "rise", "of", "sea", "level", "the", "rise"])
@example(terms={("sea", "level"), ("level", "rise"), ("rise",)}, tokens=["sea", "level", "rise"])
@example(terms={("a", "b", "c", "d", "e"), ("c", "d", "e")}, tokens=list("abcdabcde"))
def test_annotate_sentence_equals_the_token_by_token_loop(terms, tokens):
    gazetteer = Gazetteer(terms)
    sentence = Sentence("s1", 1, " ".join(tokens), tuple(tokens))
    assert annotate_sentence(sentence, gazetteer) == oracle_annotate(sentence, gazetteer)


class TestSynonymTable:
    def test_symmetry(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("co2\tcarbon dioxide\n", encoding="utf-8")
        table = load_synonyms(path)
        assert "carbon dioxide" in table.equivalence_class("co2")
        assert "co2" in table.equivalence_class("carbon dioxide")

    def test_empty_file_gives_empty_table(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("", encoding="utf-8")
        table = load_synonyms(path)
        assert canonical_label("co2", table) == "co2"

    def test_three_column_row_pairwise_closure(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("a\tb\tc\n", encoding="utf-8")
        table = load_synonyms(path)
        # brute-force oracle: all ordered pairs of {a, b, c}, each term with itself too
        actual = {(x, y) for x in "abc" for y in table.equivalence_class(x)}
        assert actual == {(x, y) for x in "abc" for y in "abc"}

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("co2\tcarbon dioxide\nonlyone\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_synonyms(path)
        assert err.value.line == 2

    def test_shipped_asset_loads(self):
        table = load_synonyms(default_synonyms_path())
        assert "carbon dioxide" in table.equivalence_class("co2")


class TestCanonicalLabel:
    def test_lexicographic_minimum(self):
        table = SynonymTable([("co2", "carbon dioxide")])
        assert canonical_label("co2", table) == "carbon dioxide"
        assert canonical_label("carbon dioxide", table) == "carbon dioxide"

    def test_identity_without_synonyms(self):
        assert canonical_label("ozone", SynonymTable()) == "ozone"

    def test_chain_transitivity(self):
        table = SynonymTable([("a", "b"), ("b", "c")])
        assert canonical_label("a", table) == "a"
        assert canonical_label("b", table) == "a"
        assert canonical_label("c", table) == "a"

    def test_idempotent(self):
        table = SynonymTable([("co2", "carbon dioxide"), ("ghg", "co2")])
        for term in ["co2", "carbon dioxide", "ghg", "other"]:
            once = canonical_label(term, table)
            assert canonical_label(once, table) == once

    def test_matches_graph_search_oracle_on_random_tables(self):
        rng = random.Random(1234)
        vocab = [f"t{i}" for i in range(12)]
        for _ in range(25):
            pairs = []
            for _ in range(rng.randint(0, 10)):
                a, b = rng.sample(vocab, 2)
                pairs.append((a, b))
            table = SynonymTable(pairs)

            # independent oracle: connected components by BFS over an explicit graph
            graph = {v: set() for v in vocab}
            for a, b in pairs:
                graph[a].add(b)
                graph[b].add(a)

            def component(start):
                seen, queue = {start}, [start]
                while queue:
                    for nxt in graph[queue.pop()]:
                        if nxt not in seen:
                            seen.add(nxt)
                            queue.append(nxt)
                return seen

            for x in vocab:
                for y in vocab:
                    same_class = canonical_label(x, table) == canonical_label(y, table)
                    assert same_class == (y in component(x))


ALPHABET = "abcdefgh"


def closure(rows, terms):
    """Brute force: the pairs of the rows, closed reflexively, symmetrically
    (a row relates each of its terms to each) and transitively (Warshall)."""
    pairs = {(x, x) for x in terms} | {(x, y) for row in rows for x in row for y in row}
    for k in terms:
        pairs |= {(x, y) for x in terms for y in terms if (x, k) in pairs and (k, y) in pairs}
    return pairs


@settings(max_examples=300, deadline=None, database=None)
@given(rows=st.lists(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=4), max_size=8))
@example(rows=[["a", "b"], ["c", "d"], ["b", "c"]])  # the last row joins two earlier classes
@example(rows=[["a", "b", "c"], ["d", "e"], ["f", "g"], ["e", "a", "g"]])
def test_classes_are_the_closure_of_the_rows(rows):
    table = SynonymTable(rows)
    terms = [*ALPHABET, "unlisted"]
    pairs = closure(rows, terms)
    for x in terms:
        members = {y for y in terms if (x, y) in pairs}
        assert table.equivalence_class(x) == members
        assert canonical_label(x, table) == min(members)
        if not any(x in row for row in rows):
            assert table.equivalence_class(x) == {x}
