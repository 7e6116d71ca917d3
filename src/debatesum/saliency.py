"""Salient sentence selection: eight per-sentence features plus their combination.

Features (raw scores):

    SP        1 - (position-1)/n, so leading sentences score highest
    SL        token count
    TT        fraction of title tokens present in the sentence
    CJ        1 if the sentence opens with a conjunctive adverb
    COS_TPS   cosine(sentence term counts, topic-signature term set)
    COS_CCTS  cosine(sentence term counts, climate-term token set)
    COS_TTS   cosine(sentence term counts, title token set)
    COS_STT   cosine(mean embedding of sentence, mean embedding of title)
    CB        mean of the available min-max-normalized features

Per comment, each feature is min-max normalized to [0,1]; selection keeps the
top ceil(ratio * n) sentences by raw score of the chosen feature, ties going
to the earlier position.

Everything runs in plain Python floats. An embedding is an ``array('d')``; a
mean adds its vectors in sequence, and a norm or a dot product adds its
products in coordinate order, so every COS_STT bit is fixed by the inputs.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property, reduce
from itertools import repeat
from operator import add, mul, truediv
from pathlib import Path
from typing import Collection, NamedTuple, Sequence

from .corpus import (
    LLR_THRESHOLD_P001,
    Comment,
    DebateTopic,
    Feature,
    Sentence,
    read_text,
)
from .errors import ComputationError, ParseError


BASE_FEATURES = tuple(f for f in Feature if f is not Feature.CB)


class TopicSignature(NamedTuple):
    term: str
    llr: float


class Lexicons:
    """Static lexical resources used by the feature scorers.

    ``embeddings`` (token -> vector, each a sequence of floats of one length)
    may be None, which disables COS_STT (scored 0 and dropped from the CB
    mean). Each title's mean embedding and norm are kept
    (``title_embedding``), since every comment of a topic reads them.
    """

    def __init__(
        self,
        conjunctive_adverbs: frozenset[tuple[str, ...]],
        climate_terms: Collection[tuple[str, ...]],
        embeddings: dict[str, Sequence[float]] | None = None,
    ):
        self.conjunctive_adverbs = conjunctive_adverbs
        self.climate_terms = climate_terms
        self.embeddings = embeddings
        self._titles: dict[tuple[str, ...], tuple[list[float], float] | None] = {}

    @cached_property
    def climate_tokens(self) -> frozenset[str]:
        """Every token of every climate term, built once per lexicon set."""
        return frozenset(t for term in self.climate_terms for t in term)

    @cached_property
    def conjunctive_adverb_lengths(self) -> frozenset[int]:
        """The distinct token counts of the conjunctive adverbs."""
        return frozenset(len(entry) for entry in self.conjunctive_adverbs)

    def title_embedding(self, title_tokens: tuple[str, ...]) -> tuple[list[float], float] | None:
        """The mean embedding of a title and its norm; None if no title token
        has a vector."""
        if title_tokens not in self._titles:
            mean = _mean_embedding(title_tokens, self.embeddings)
            self._titles[title_tokens] = None if mean is None else (mean, math.sqrt(_dot(mean, mean)))
        return self._titles[title_tokens]


class CommentScores(NamedTuple):
    """The scored features' columns of one comment, each in ``comment.sentences``
    order."""

    raw: dict[Feature, list[float]]
    normalized: dict[Feature, list[float]]
    cb: list[float] | None

    def column(self, feature: Feature) -> list[float]:
        """Values used for ranking: raw scores, or the combined mean for CB."""
        return self.cb if feature is Feature.CB else self.raw[feature]


def load_embeddings(path: str | Path) -> dict[str, Sequence[float]]:
    """Plain-text vectors: token followed by d floats per line, each vector
    kept as an ``array('d')``.

    A first line of exactly two integers is treated as a "count dim" header
    and skipped. A file with no vector (empty, blank lines only, or only the
    header) is a ParseError: it would score COS_STT 0 everywhere and still
    count it in CB's mean.
    """
    from array import array  # an extension module: only a run with embeddings maps it

    vectors: dict[str, Sequence[float]] = {}
    dim: int | None = None
    lines = read_text(path).splitlines()
    start = 0
    if lines:
        head = lines[0].split()
        if len(head) == 2:
            try:
                int(head[0]), int(head[1])
                start = 1
            except ValueError:
                pass
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        parts = line.split()
        token = parts[0].lower()
        try:
            vec = array("d", map(float, parts[1:]))
        except ValueError as exc:
            raise ParseError(f"bad embedding value: {exc}", source=str(path), line=lineno) from exc
        if not vec:
            raise ParseError("embedding line has no values", source=str(path), line=lineno)
        if not all(map(math.isfinite, vec)):
            raise ParseError("embedding value is not finite", source=str(path), line=lineno)
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ParseError(
                f"embedding dimension {len(vec)} != {dim}", source=str(path), line=lineno
            )
        vectors[token] = vec
    if not vectors:
        raise ParseError("embeddings file holds no vectors", source=str(path))
    return vectors


def _binomial_log_likelihood(k: int, n: int, p: float) -> float:
    # k*log(p) + (n-k)*log(1-p) with the 0*log(0) = 0 convention
    out = 0.0
    if k > 0:
        out += k * math.log(p)
    if n - k > 0:
        out += (n - k) * math.log(1.0 - p)
    return out


def log_likelihood_ratio(k1: int, n1: int, k2: int, n2: int) -> float:
    """-2 log lambda for equal vs distinct occurrence probabilities.

    k1/n1 are the term count and token total in the foreground, k2/n2 in the
    background. Nonnegative by construction; tiny float negatives clamp to 0.
    """
    p1 = k1 / n1
    p2 = k2 / n2
    p = (k1 + k2) / (n1 + n2)
    stat = 2.0 * (
        _binomial_log_likelihood(k1, n1, p1)
        + _binomial_log_likelihood(k2, n2, p2)
        - _binomial_log_likelihood(k1, n1, p)
        - _binomial_log_likelihood(k2, n2, p)
    )
    return max(stat, 0.0)


def extract_topic_signatures(
    foreground: list[str] | Counter,
    background: list[str] | Counter,
    threshold: float = LLR_THRESHOLD_P001,
    stopwords: frozenset[str] | None = None,
) -> list[TopicSignature]:
    """Terms overrepresented in the foreground at the given LLR cutoff.

    Candidates are the distinct foreground terms (minus stopwords); a term
    whose relative frequency does not exceed the background's is never a
    signature. Result sorted by statistic descending, ties alphabetical.
    """
    fg = Counter(foreground) if not isinstance(foreground, Counter) else foreground
    bg = Counter(background) if not isinstance(background, Counter) else background
    n1 = sum(fg.values())
    n2 = sum(bg.values())
    if n1 == 0:
        raise ComputationError("topic signatures need a nonempty foreground corpus")
    if n2 == 0:
        raise ComputationError("topic signatures need a nonempty background corpus")
    if threshold <= 0:
        raise ComputationError("signature threshold must be positive")

    signatures = []
    for term, k1 in fg.items():
        if stopwords and term in stopwords:
            continue
        k2 = bg.get(term, 0)
        if k1 / n1 <= k2 / n2:
            continue
        stat = log_likelihood_ratio(k1, n1, k2, n2)
        if stat >= threshold:
            signatures.append(TopicSignature(term=term, llr=stat))
    signatures.sort(key=lambda s: (-s.llr, s.term))
    return signatures


def _mean_embedding(
    tokens: tuple[str, ...], embeddings: dict[str, Sequence[float]]
) -> list[float] | None:
    """The mean of the vectors of ``tokens`` that have one, added in sequence
    from the first; None if no token has one."""
    vectors = [v for v in map(embeddings.get, tokens) if v is not None]
    if not vectors:
        return None
    total = vectors[0]
    for vector in vectors[1:]:
        total = list(map(add, total, vector))
    return list(map(truediv, total, repeat(len(vectors))))


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    """u . v, its products added in coordinate order."""
    return reduce(add, map(mul, u, v), 0.0)


def _starts_with_conjunctive_adverb(tokens: tuple[str, ...], lexicons: Lexicons) -> bool:
    return any(tokens[:k] in lexicons.conjunctive_adverbs for k in lexicons.conjunctive_adverb_lengths)


def _count_norm(tokens: tuple[str, ...]) -> float:
    """Euclidean norm of the term counts of a token sequence."""
    if len(set(tokens)) == len(tokens):  # every count is 1
        return math.sqrt(len(tokens))
    return math.sqrt(sum(c * c for c in Counter(tokens).values()))


def _set_cosines(
    sentences: tuple[Sentence, ...], norms: list[float], terms: frozenset[str]
) -> list[float]:
    """cosine(sentence term counts, binary vector of ``terms``) per sentence;
    ``norms`` holds the Euclidean norms of the sentences' term counts."""
    terms_norm = math.sqrt(len(terms))  # 0.0 for an empty set
    return [
        sum(map(terms.__contains__, s.tokens)) / (norm * terms_norm) if terms_norm and norm else 0.0
        for s, norm in zip(sentences, norms)
    ]


def _title_cosines(
    comment: Comment, title: tuple[list[float], float] | None, embeddings: dict[str, Sequence[float]]
) -> list[float]:
    """cosine(mean embedding of sentence, mean embedding of title) per sentence
    of ``comment``, clipped to [-1, 1]; 0 where either has no embedded token.
    ``title`` is the title's mean and norm (``Lexicons.title_embedding``).

    A sentence's cosine depends on its own tokens and the title alone.
    """
    if title is None:
        return [0.0] * len(comment.sentences)
    title_mean, title_norm = title
    column = []
    for s in comment.sentences:
        mean = _mean_embedding(s.tokens, embeddings)
        denom = math.sqrt(_dot(mean, mean)) * title_norm if mean is not None else 0.0
        column.append(max(-1.0, min(1.0, _dot(mean, title_mean) / denom)) if denom else 0.0)
    return column


def score_comment(
    comment: Comment,
    topic: DebateTopic,
    lexicons: Lexicons,
    signatures: list[TopicSignature],
    features: Collection[Feature] = tuple(Feature),
) -> CommentScores:
    """Columns of ``features`` (by default all nine) for the sentences of a comment.

    Normalization is min-max within the comment; a feature constant across
    the comment normalizes to 0 everywhere. CB averages the normalized
    features that are available (COS_STT only when embeddings are loaded),
    so asking for CB scores each of those too. Only COS_TPS reads
    ``signatures``. ``cb`` is None unless CB is asked for.
    """
    sentences = comment.sentences
    n = len(sentences)
    # COS_STT is the last base feature, so the available ones are a prefix
    available = BASE_FEATURES if lexicons.embeddings is not None else BASE_FEATURES[:-1]
    wanted = set(features).union(available) if Feature.CB in features else set(features)
    title_tokens = frozenset(topic.title_tokens)
    term_sets = {
        Feature.COS_TPS: frozenset(s.term for s in signatures),
        Feature.COS_CCTS: lexicons.climate_tokens,
        Feature.COS_TTS: title_tokens,
    }

    raw: dict[Feature, list[float]] = {}  # filled in BASE_FEATURES order
    if Feature.SP in wanted:
        raw[Feature.SP] = [1.0 - (s.position - 1) / n for s in sentences]
    if Feature.SL in wanted:
        raw[Feature.SL] = [float(len(s.tokens)) for s in sentences]
    if Feature.TT in wanted:
        raw[Feature.TT] = [
            len(title_tokens.intersection(s.tokens)) / len(title_tokens) if title_tokens else 0.0
            for s in sentences
        ]
    if Feature.CJ in wanted:
        raw[Feature.CJ] = [float(_starts_with_conjunctive_adverb(s.tokens, lexicons)) for s in sentences]
    if wanted.intersection(term_sets):
        norms = [_count_norm(s.tokens) for s in sentences]
        for feature, terms in term_sets.items():
            if feature in wanted:
                raw[feature] = _set_cosines(sentences, norms, terms)
    if Feature.COS_STT in wanted:
        embeddings = lexicons.embeddings
        raw[Feature.COS_STT] = (
            _title_cosines(comment, lexicons.title_embedding(topic.title_tokens), embeddings)
            if embeddings is not None
            else [0.0] * n
        )

    normalized = {}
    for feature, column in raw.items():
        lo, hi = min(column), max(column)
        span = hi - lo
        normalized[feature] = [(v - lo) / span for v in column] if span > 0 else [0.0] * n
    cb = None
    if Feature.CB in features:
        cb = [reduce(add, row, 0.0) / len(available) for row in zip(*(normalized[f] for f in available))]
    return CommentScores(raw=raw, normalized=normalized, cb=cb)
