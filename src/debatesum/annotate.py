"""Ontology-term annotation over sentences.

A flat gazetteer of climate-change terms stands in for the live annotation
service: matching is greedy left-to-right longest-match over token sequences,
case-insensitive and non-overlapping, which is how a GATE-style gazetteer
behaves by default.

Synonym handling: terms connected through the synonym table form an
equivalence class whose lexicographically smallest member is the canonical
label. canonical_label is idempotent and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .corpus import Sentence, read_lines, tokenize
from .errors import ParseError, ValidationError

Term = tuple[str, ...]

# The label of a cluster no term describes; alignment drops such clusters.
UNLABELED: Term = ("(unlabeled)",)


def _normalize_term(text: str) -> Term:
    return tuple(tokenize(text))


def term_text(term: Term) -> str:
    return " ".join(term)


@dataclass(frozen=True)
class TermAnnotation:
    sentence_id: str
    term: Term
    start: int  # token index, inclusive
    end: int    # token index, exclusive


class Gazetteer:
    """Set of lowercase multiword terms (1..5 tokens each)."""

    MAX_TERM_TOKENS = 5

    def __init__(self, terms: set[Term]):
        for t in terms:
            if not t:
                raise ValidationError("gazetteer terms must be nonempty")
            if len(t) > self.MAX_TERM_TOKENS:
                raise ValidationError(f"gazetteer term too long ({len(t)} tokens)", record=term_text(t))
        self.terms = frozenset(terms)
        self._max_len = max((len(t) for t in terms), default=0)
        self._first_tokens = frozenset(t[0] for t in terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: Term) -> bool:
        return tuple(term) in self.terms

    def match_at(self, tokens: tuple[str, ...] | list[str], start: int) -> Term | None:
        """Longest gazetteer term starting at token index ``start``, if any."""
        if start >= len(tokens) or tokens[start] not in self._first_tokens:
            return None
        limit = min(self._max_len, len(tokens) - start)
        for length in range(limit, 0, -1):
            candidate = tuple(tokens[start : start + length])
            if candidate in self.terms:
                return candidate
        return None


def load_lexicon_terms(path: str | Path) -> frozenset[Term]:
    """Lexicon file: one (possibly multiword) entry per line, '#' comments.

    Terms are tokenized and lowercased, duplicates collapse.
    """
    terms = (_normalize_term(line) for _, line in read_lines(path))
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
    """Greedy left-to-right longest-match annotation; spans never overlap."""
    annotations: list[TermAnnotation] = []
    tokens = sentence.tokens
    i = 0
    while i < len(tokens):
        term = gazetteer.match_at(tokens, i)
        if term is None:
            i += 1
            continue
        annotations.append(TermAnnotation(sentence.id, term, i, i + len(term)))
        i += len(term)
    return annotations


class SynonymTable:
    """Symmetric synonym relation over terms, with connected-component labels."""

    def __init__(self, pairs: list[tuple[Term, Term]] | None = None):
        self._adjacent: dict[Term, set[Term]] = {}
        for a, b in pairs or []:
            self.add(a, b)

    def add(self, a: Term, b: Term) -> None:
        if a == b:
            return
        self._adjacent.setdefault(a, set()).add(b)
        self._adjacent.setdefault(b, set()).add(a)

    def synonyms(self, term: Term) -> frozenset[Term]:
        return frozenset(self._adjacent.get(tuple(term), set()))

    def equivalence_class(self, term: Term) -> frozenset[Term]:
        """Connected component of ``term`` under the synonym relation."""
        term = tuple(term)
        seen = {term}
        frontier = [term]
        while frontier:
            current = frontier.pop()
            for nxt in self._adjacent.get(current, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def __len__(self) -> int:
        return len(self._adjacent)


def load_synonyms(path: str | Path) -> SynonymTable:
    """Read a TSV of synonym rows (first column the term, rest its synonyms).

    All terms on one row become pairwise synonyms; the table ends up
    symmetric by construction.
    """
    table = SynonymTable()
    for lineno, line in read_lines(path):
        terms = [t for t in map(_normalize_term, line.split("\t")) if t]
        if len(terms) < 2:
            raise ParseError("synonym row needs at least two terms", source=str(path), line=lineno)
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                table.add(terms[i], terms[j])
    return table


def canonical_label(term: Term, table: SynonymTable) -> Term:
    """Lexicographically smallest member of the term's synonym class."""
    cls = table.equivalence_class(tuple(term))
    return min(cls, key=term_text)

