import random

import pytest

from debatesum.annotate import (
    Gazetteer,
    SynonymTable,
    annotate_sentence,
    canonical_label,
    load_gazetteer,
    load_synonyms,
    term_text,
)
from debatesum.assets import default_gazetteer_path, default_synonyms_path
from debatesum.corpus import Sentence
from debatesum.errors import ParseError, ValidationError


def sent(text: str) -> Sentence:
    return Sentence.make("s1", 1, text)


class TestGazetteer:
    def test_shipped_asset_has_64_terms(self):
        gazetteer = load_gazetteer(default_gazetteer_path())
        assert len(gazetteer) == 64

    def test_normalization_collapses_duplicates(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("Global Warming\nglobal warming\n", encoding="utf-8")
        assert len(load_gazetteer(path)) == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# just a comment\n\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_gazetteer(path)


class TestAnnotateSentence:
    def test_direct_match(self):
        gaz = Gazetteer({("global", "warming")})
        anns = annotate_sentence(sent("Global warming is real"), gaz)
        assert [(a.term, a.start, a.end) for a in anns] == [(("global", "warming"), 0, 2)]

    def test_longest_match_wins(self):
        gaz = Gazetteer({("ice",), ("sea", "ice")})
        anns = annotate_sentence(sent("sea ice extent"), gaz)
        assert [a.term for a in anns] == [("sea", "ice")]

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
            assert s.tokens[a.start : a.end] == a.term


class TestSynonymTable:
    def test_symmetry(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("co2\tcarbon dioxide\n", encoding="utf-8")
        table = load_synonyms(path)
        assert ("carbon", "dioxide") in table.synonyms(("co2",))
        assert ("co2",) in table.synonyms(("carbon", "dioxide"))

    def test_empty_file_gives_empty_table(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("", encoding="utf-8")
        table = load_synonyms(path)
        assert len(table) == 0
        assert canonical_label(("co2",), table) == ("co2",)

    def test_three_column_row_pairwise_closure(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("a\tb\tc\n", encoding="utf-8")
        table = load_synonyms(path)
        # brute-force oracle: all unordered pairs of {a, b, c}
        expected = {
            (("a",), ("b",)), (("a",), ("c",)), (("b",), ("a",)),
            (("b",), ("c",)), (("c",), ("a",)), (("c",), ("b",)),
        }
        actual = {(x, y) for x in [("a",), ("b",), ("c",)] for y in table.synonyms(x)}
        assert actual == expected

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("co2\tcarbon dioxide\nonlyone\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_synonyms(path)
        assert err.value.line == 2

    def test_shipped_asset_loads(self):
        table = load_synonyms(default_synonyms_path())
        assert ("carbon", "dioxide") in table.synonyms(("co2",))


class TestCanonicalLabel:
    def test_lexicographic_minimum(self):
        table = SynonymTable([(("co2",), ("carbon", "dioxide"))])
        assert canonical_label(("co2",), table) == ("carbon", "dioxide")
        assert canonical_label(("carbon", "dioxide"), table) == ("carbon", "dioxide")

    def test_identity_without_synonyms(self):
        assert canonical_label(("ozone",), SynonymTable()) == ("ozone",)

    def test_chain_transitivity(self):
        table = SynonymTable([(("a",), ("b",)), (("b",), ("c",))])
        assert canonical_label(("a",), table) == ("a",)
        assert canonical_label(("b",), table) == ("a",)
        assert canonical_label(("c",), table) == ("a",)

    def test_idempotent(self):
        table = SynonymTable([(("co2",), ("carbon", "dioxide")), (("ghg",), ("co2",))])
        for term in [("co2",), ("carbon", "dioxide"), ("ghg",), ("other",)]:
            once = canonical_label(term, table)
            assert canonical_label(once, table) == once

    def test_matches_graph_search_oracle_on_random_tables(self):
        rng = random.Random(1234)
        vocab = [(f"t{i}",) for i in range(12)]
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



class TestTermText:
    def test_term_order_string(self):
        assert term_text(("sea", "ice")) == "sea ice"
