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
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .assets import (
    default_conjunctive_adverbs_path,
    default_gazetteer_path,
)
from .corpus import Comment, DebateTopic, Sentence, salient_count, tokenize
from .errors import ComputationError, ParseError

# chi-squared critical value (1 dof, p < 0.001); default signature cutoff
LLR_THRESHOLD_P001 = 10.83


class Feature(str, Enum):
    SP = "SP"
    SL = "SL"
    TT = "TT"
    CJ = "CJ"
    COS_TPS = "COS_TPS"
    COS_CCTS = "COS_CCTS"
    COS_TTS = "COS_TTS"
    COS_STT = "COS_STT"
    CB = "CB"


BASE_FEATURES = tuple(f for f in Feature if f is not Feature.CB)


@dataclass(frozen=True)
class TopicSignature:
    term: str
    llr: float


@dataclass(frozen=True)
class Lexicons:
    """Static lexical resources used by the feature scorers.

    ``embeddings`` may be None, which disables COS_STT (scored 0 and dropped
    from the CB mean).
    """

    conjunctive_adverbs: frozenset[tuple[str, ...]]
    climate_terms: frozenset[tuple[str, ...]]
    embeddings: dict[str, np.ndarray] | None = None

    @cached_property
    def climate_tokens(self) -> frozenset[str]:
        """Every token of every climate term, built once per lexicon set."""
        return frozenset(t for term in self.climate_terms for t in term)

    @cached_property
    def conjunctive_adverb_lengths(self) -> frozenset[int]:
        """The distinct token counts of the conjunctive adverbs."""
        return frozenset(len(entry) for entry in self.conjunctive_adverbs)


@dataclass(frozen=True)
class FeatureVector:
    sentence_id: str
    raw: dict[Feature, float]
    normalized: dict[Feature, float]
    cb: float

    def score(self, feature: Feature) -> float:
        """Raw value used for ranking; CB ranks by the combined mean."""
        if feature is Feature.CB:
            return self.cb
        return self.raw[feature]


def load_lexicon_terms(path: str | Path) -> frozenset[tuple[str, ...]]:
    """Lexicon file: one (possibly multiword) entry per line, '#' comments."""
    terms = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        term = tuple(tokenize(line))
        if term:
            terms.add(term)
    return frozenset(terms)


def load_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """Plain-text vectors: token followed by d floats per line.

    A first line of exactly two integers is treated as a "count dim" header
    and skipped.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise ParseError(
                f"embedding dimension {vec.size} != {dim}", source=str(path), line=lineno
            )
        vectors[token] = vec
    return vectors


def default_lexicons(embeddings: dict[str, np.ndarray] | None = None) -> Lexicons:
    return Lexicons(
        conjunctive_adverbs=load_lexicon_terms(default_conjunctive_adverbs_path()),
        climate_terms=load_lexicon_terms(default_gazetteer_path()),
        embeddings=embeddings,
    )


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


def _set_cosine(token_counts: Counter, norm: float, token_set: frozenset[str] | set[str]) -> float:
    """Cosine between a term-frequency vector of Euclidean norm ``norm`` and
    the binary vector of a set."""
    if not token_counts or not token_set or norm == 0.0:
        return 0.0
    dot = sum(c for t, c in token_counts.items() if t in token_set)
    return dot / (norm * math.sqrt(len(token_set)))


def _mean_embedding(tokens: tuple[str, ...], embeddings: dict[str, np.ndarray]) -> np.ndarray | None:
    vecs = [embeddings[t] for t in tokens if t in embeddings]
    if not vecs:
        return None
    return np.mean(vecs, axis=0)


def _starts_with_conjunctive_adverb(tokens: tuple[str, ...], lexicons: Lexicons) -> bool:
    return any(tokens[:k] in lexicons.conjunctive_adverbs for k in lexicons.conjunctive_adverb_lengths)


def score_comment(
    comment: Comment,
    topic: DebateTopic,
    lexicons: Lexicons,
    signatures: list[TopicSignature],
    cb_weights: dict[Feature, float] | None = None,
) -> dict[str, FeatureVector]:
    """Feature vectors for every sentence of a comment.

    Normalization is min-max within the comment; a feature constant across
    the comment normalizes to 0 everywhere. CB averages the normalized
    features that are available (COS_STT only when embeddings are loaded);
    ``cb_weights`` replaces the unweighted mean with a weighted one.
    """
    n = len(comment.sentences)
    title_tokens = frozenset(topic.title_tokens)
    signature_terms = frozenset(s.term for s in signatures)
    climate_tokens = lexicons.climate_tokens
    embeddings = lexicons.embeddings

    title_emb = None
    if embeddings is not None:
        title_emb = _mean_embedding(topic.title_tokens, embeddings)

    raws: dict[str, dict[Feature, float]] = {}
    for sentence in comment.sentences:
        counts = Counter(sentence.tokens)
        norm = math.sqrt(sum(c * c for c in counts.values()))
        raw: dict[Feature, float] = {
            Feature.SP: 1.0 - (sentence.position - 1) / n,
            Feature.SL: float(len(sentence.tokens)),
            Feature.TT: (
                len(set(sentence.tokens) & title_tokens) / len(title_tokens)
                if title_tokens
                else 0.0
            ),
            Feature.CJ: float(_starts_with_conjunctive_adverb(sentence.tokens, lexicons)),
            Feature.COS_TPS: _set_cosine(counts, norm, signature_terms),
            Feature.COS_CCTS: _set_cosine(counts, norm, climate_tokens),
            Feature.COS_TTS: _set_cosine(counts, norm, title_tokens),
        }
        if embeddings is not None and title_emb is not None:
            sent_emb = _mean_embedding(sentence.tokens, embeddings)
            if sent_emb is None:
                raw[Feature.COS_STT] = 0.0
            else:
                denom = float(np.linalg.norm(sent_emb) * np.linalg.norm(title_emb))
                raw[Feature.COS_STT] = (
                    0.0 if denom == 0.0 else float(np.clip(sent_emb @ title_emb / denom, -1.0, 1.0))
                )
        else:
            raw[Feature.COS_STT] = 0.0
        raws[sentence.id] = raw

    available = [f for f in BASE_FEATURES if f is not Feature.COS_STT or embeddings is not None]
    weights = {f: 1.0 for f in available}
    if cb_weights:
        weights = {f: float(cb_weights.get(f, 0.0)) for f in available}
        if sum(weights.values()) <= 0:
            raise ComputationError("cb_weights must give positive total weight")

    lo = {f: min(raws[s.id][f] for s in comment.sentences) for f in BASE_FEATURES}
    hi = {f: max(raws[s.id][f] for s in comment.sentences) for f in BASE_FEATURES}

    vectors: dict[str, FeatureVector] = {}
    total_weight = sum(weights.values())
    for sentence in comment.sentences:
        raw = raws[sentence.id]
        normalized = {}
        for f in BASE_FEATURES:
            span = hi[f] - lo[f]
            normalized[f] = (raw[f] - lo[f]) / span if span > 0 else 0.0
        cb = sum(weights[f] * normalized[f] for f in available) / total_weight
        vectors[sentence.id] = FeatureVector(
            sentence_id=sentence.id, raw=raw, normalized=normalized, cb=cb
        )
    return vectors


def score_features(
    sentence: Sentence,
    comment: Comment,
    topic: DebateTopic,
    lexicons: Lexicons,
    signatures: list[TopicSignature],
) -> FeatureVector:
    """Feature vector for one sentence (normalized against its comment)."""
    if sentence.id not in {s.id for s in comment.sentences}:
        raise ComputationError(f"sentence {sentence.id!r} is not part of comment {comment.id!r}")
    return score_comment(comment, topic, lexicons, signatures)[sentence.id]


def select_salient(
    comment: Comment,
    scores: dict[str, FeatureVector],
    feature: Feature = Feature.SP,
    ratio: float = 0.2,
) -> list[str]:
    """Ids of the top ceil(ratio * n) sentences by the chosen feature.

    Ties break toward the earlier position; the result is ordered by the
    sentences' original positions.
    """
    if not 0.0 < ratio <= 1.0:
        raise ComputationError(f"selection ratio must be in (0, 1], got {ratio}")
    count = salient_count(len(comment.sentences), ratio)
    ranked = sorted(
        comment.sentences, key=lambda s: (-scores[s.id].score(feature), s.position)
    )
    chosen = {s.id for s in ranked[:count]}
    return [s.id for s in comment.sentences if s.id in chosen]
