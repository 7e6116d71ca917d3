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
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property, reduce
from itertools import accumulate, chain
from operator import add
from pathlib import Path
from typing import Collection, NamedTuple

from ._numpy import np
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

    ``embeddings`` may be None, which disables COS_STT (scored 0 and dropped
    from the CB mean). The COS_STT columns of the last topic scored are kept
    (``title_cosines``).
    """

    def __init__(
        self,
        conjunctive_adverbs: frozenset[tuple[str, ...]],
        climate_terms: Collection[tuple[str, ...]],
        embeddings: dict[str, np.ndarray] | None = None,
    ):
        self.conjunctive_adverbs = conjunctive_adverbs
        self.climate_terms = climate_terms
        self.embeddings = embeddings
        self._cosines_topic: DebateTopic | None = None
        self._cosines: dict[int, list[float]] = {}

    @cached_property
    def climate_tokens(self) -> frozenset[str]:
        """Every token of every climate term, built once per lexicon set."""
        return frozenset(t for term in self.climate_terms for t in term)

    @cached_property
    def conjunctive_adverb_lengths(self) -> frozenset[int]:
        """The distinct token counts of the conjunctive adverbs."""
        return frozenset(len(entry) for entry in self.conjunctive_adverbs)

    @cached_property
    def embedding_rows(self) -> tuple[dict[str, int], np.ndarray]:
        """Token -> row of one matrix of the embeddings, whose extra last row
        is all -0.0 (``_title_cosines`` pads with it)."""
        vectors = self.embeddings
        dim = len(next(iter(vectors.values()))) if vectors else 0
        matrix = np.vstack([*vectors.values(), np.full(dim, -0.0)])
        return {token: i for i, token in enumerate(vectors)}, matrix

    def title_cosines(self, comment: Comment, topic: DebateTopic) -> list[float]:
        """The COS_STT column of ``comment``: its part of
        ``_title_cosines(topic, self)``, which is kept for the last topic asked
        for (by identity), since every comment of a topic reads it. A comment
        not in ``topic.comments`` is scored on its own."""
        if self._cosines_topic is not topic:
            self._cosines_topic, self._cosines = topic, _title_cosines(topic, self)
        column = self._cosines.get(id(comment))
        if column is None:
            column = _title_cosines(topic._replace(comments=(comment,)), self)[id(comment)]
        return list(column)


class CommentScores(NamedTuple):
    """The scored features' columns of one comment, each in ``comment.sentences``
    order."""

    raw: dict[Feature, list[float]]
    normalized: dict[Feature, list[float]]
    cb: list[float] | None

    def column(self, feature: Feature) -> list[float]:
        """Values used for ranking: raw scores, or the combined mean for CB."""
        return self.cb if feature is Feature.CB else self.raw[feature]


def load_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """Plain-text vectors: token followed by d floats per line.

    A first line of exactly two integers is treated as a "count dim" header
    and skipped. A file with no vector (empty, blank lines only, or only the
    header) is a ParseError: it would score COS_STT 0 everywhere and still
    count it in CB's mean.
    """
    vectors: dict[str, np.ndarray] = {}
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
            vec = np.array([float(x) for x in parts[1:]], dtype=float)
        except ValueError as exc:
            raise ParseError(f"bad embedding value: {exc}", source=str(path), line=lineno) from exc
        if vec.size == 0:
            raise ParseError("embedding line has no values", source=str(path), line=lineno)
        if not np.isfinite(vec).all():
            raise ParseError("embedding value is not finite", source=str(path), line=lineno)
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise ParseError(
                f"embedding dimension {vec.size} != {dim}", source=str(path), line=lineno
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


def _mean_embeddings(grid: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The mean of each row of ``grid``, a row holding ``counts`` vectors and
    then the all -0.0 padding, which leaves every sum unchanged.

    Each row's vectors add in sequence, at any width and dimension, so a
    row's mean depends on its own vectors alone.
    """
    sums = grid[:, 0].copy()
    for j in range(1, grid.shape[1]):
        sums += grid[:, j]
    return sums / counts


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


def _title_cosines(topic: DebateTopic, lexicons: Lexicons) -> dict[int, list[float]]:
    """``id`` of each comment of ``topic`` -> cosine(mean embedding of sentence,
    mean embedding of title) per sentence, clipped to [-1, 1]; 0 where either
    has no embedded token.

    One gather per topic puts the title's and every sentence's vectors in the
    rows of one grid padded with -0.0 (``_mean_embeddings``). The norms and the
    title dots are stacked products, ``E[:, None, :] @ E[:, :, None]`` and
    ``E[:, None, :] @ t[:, None]``: each row is one vector-dot of the same loop
    as the 1-d ``s @ s`` and ``s @ t`` of a sentence, so they are bit-equal to
    taking them one sentence at a time; the division and the clip stay per
    sentence in Python floats.
    """
    index, matrix = lexicons.embedding_rows
    comments = topic.comments
    rows = [
        [index[t] for t in tokens if t in index]
        for tokens in (topic.title_tokens, *(s.tokens for c in comments for s in c.sentences))
    ]
    bounds = list(accumulate((len(c.sentences) for c in comments), initial=1))
    spans = list(zip(comments, bounds, bounds[1:]))  # each comment's rows
    if not rows[0]:
        return {id(c): [0.0] * (hi - lo) for c, lo, hi in spans}
    lengths = np.array([len(r) for r in rows])
    width = int(lengths.max())
    padded = np.full((len(rows), width), len(matrix) - 1)  # the all -0.0 row
    padded[np.arange(width) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(rows), np.intp, lengths.sum()
    )
    means = _mean_embeddings(matrix[padded], np.maximum(lengths, 1)[:, None])
    stacked = means[:, None, :]
    norms = np.sqrt(stacked @ means[:, :, None]).ravel().tolist()
    dots = (stacked @ means[0][:, None]).ravel().tolist()
    columns = {}
    for c, lo, hi in spans:
        column = []
        for i in range(lo, hi):
            denom = norms[i] * norms[0]
            column.append(max(-1.0, min(1.0, dots[i] / denom)) if rows[i] and denom else 0.0)
        columns[id(c)] = column
    return columns


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
        raw[Feature.COS_STT] = (
            lexicons.title_cosines(comment, topic) if lexicons.embeddings is not None else [0.0] * n
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
