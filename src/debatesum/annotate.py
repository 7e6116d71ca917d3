"""Ontology-term annotation over sentences.

A flat gazetteer of climate-change terms stands in for the live annotation
service: matching is greedy left-to-right longest-match over token sequences,
case-insensitive and non-overlapping, which is how a GATE-style gazetteer
behaves by default.

A term is one string, its tokens joined by single spaces, which is the form
every artifact writes. Only the gazetteer matches token tuples: it maps each
term's tokens to its text once.

Synonym handling: terms connected through the synonym rows form an
equivalence class, resolved when the table is built, whose lexicographically
smallest member is the canonical label. canonical_label is idempotent and
order-independent.
"""

from __future__ import annotations

from pathlib import Path
from typing import Collection, Iterable, NamedTuple

from .corpus import Sentence, read_lines, tokenize
from .errors import ParseError, ValidationError

Term = str

# The label of a cluster no term describes; alignment drops such clusters.
UNLABELED: Term = "(unlabeled)"


class TermAnnotation(NamedTuple):
    sentence_id: str
    term: Term
    start: int  # token index, inclusive
    end: int    # token index, exclusive


class Gazetteer:
    """Lowercase multiword terms (1..5 tokens each), matched as token tuples:
    ``terms`` maps each term's tokens to its text."""

    MAX_TERM_TOKENS = 5

    def __init__(self, terms: Collection[tuple[str, ...]]):
        for t in terms:
            if not t:
                raise ValidationError("gazetteer terms must be nonempty")
            if len(t) > self.MAX_TERM_TOKENS:
                raise ValidationError(f"gazetteer term too long ({len(t)} tokens)", record=" ".join(t))
        self.terms = {t: " ".join(t) for t in terms}
        self._max_len = max((len(t) for t in terms), default=0)
        self._first_tokens = frozenset(t[0] for t in terms)

    def match_at(self, tokens: tuple[str, ...] | list[str], start: int) -> tuple[Term, int] | None:
        """The longest gazetteer term starting at token index ``start``, if
        any: its text and the index just past its last token."""
        if start >= len(tokens) or tokens[start] not in self._first_tokens:
            return None
        for end in range(start + min(self._max_len, len(tokens) - start), start, -1):
            text = self.terms.get(tuple(tokens[start:end]))
            if text is not None:
                return text, end
        return None


def load_lexicon_terms(path: str | Path) -> frozenset[tuple[str, ...]]:
    """Lexicon file: one (possibly multiword) entry per line, '#' comments.

    Entries are tokenized and lowercased, as token tuples; duplicates collapse.
    """
    terms = (tuple(tokenize(line)) for _, line in read_lines(path))
    return frozenset(term for term in terms if term)


def load_gazetteer(path: str | Path) -> Gazetteer:
    """Read a lexicon file (``load_lexicon_terms``) as a gazetteer. An empty
    gazetteer is an error: it would make every downstream stage vacuous.
    """
    terms = load_lexicon_terms(path)
    if not terms:
        raise ValidationError(f"gazetteer file {path} contains no terms")
    return Gazetteer(terms)


def annotate_sentence(sentence: Sentence, gazetteer: Gazetteer) -> list[TermAnnotation]:
    """Greedy left-to-right longest-match annotation; spans never overlap.

    Only a token that some term starts with, past the end of the last match,
    can start a match, so only those are tried."""
    annotations: list[TermAnnotation] = []
    tokens, first, end = sentence.tokens, gazetteer._first_tokens, 0
    for i in [i for i, token in enumerate(tokens) if token in first]:
        if i >= end and (match := gazetteer.match_at(tokens, i)) is not None:
            term, end = match
            annotations.append(TermAnnotation(sentence.id, term, i, end))
    return annotations


class SynonymTable:
    """Synonym classes over terms. Every term on a row is a synonym of every
    other, and rows that share a term join one class; each listed term's class
    is computed here, once. A term on no row is its own class."""

    def __init__(self, rows: Iterable[Iterable[Term]] = ()):
        self._class: dict[Term, frozenset[Term]] = {}
        for row in map(frozenset, rows):
            members = row.union(*(self._class.get(t, ()) for t in row))
            self._class.update(dict.fromkeys(members, members))

    def equivalence_class(self, term: Term) -> frozenset[Term]:
        """Connected component of ``term`` under the synonym relation."""
        return self._class.get(term) or frozenset((term,))


def load_synonyms(path: str | Path) -> SynonymTable:
    """Read a TSV of synonym rows, each of at least two terms."""
    rows = []
    for lineno, line in read_lines(path):
        terms = [t for t in (" ".join(tokenize(cell)) for cell in line.split("\t")) if t]
        if len(terms) < 2:
            raise ParseError("synonym row needs at least two terms", source=str(path), line=lineno)
        rows.append(terms)
    return SynonymTable(rows)


def canonical_label(term: Term, table: SynonymTable) -> Term:
    """Lexicographically smallest member of the term's synonym class."""
    return min(table.equivalence_class(term))

