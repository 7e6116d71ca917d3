"""End-to-end orchestration: load, annotate, select, cluster, label, align, chart, eval.

Every stage consumes and produces plain JSON-able documents, so each one can
also run standalone against the previous stage's serialized artifact. All
artifacts are written with sorted keys and a trailing newline; rerunning the
same configuration over the same inputs reproduces every file byte for byte.

Artifacts written into the output directory:

    annotations.json   term annotations per sentence (raw + canonical form)
    salient.json       selected sentence ids per comment
    clusters.json      per topic and side: clusters, unclustered ids,
                       and (for the xmeans method) the reduced points
    labels.json        one label per cluster
    alignment.json     aligned pairs and dropped clusters per topic
    chart_<topic>.json / .html   the Chart Summary per topic
    evaluation.json    ROUGE table per feature and silhouette per method
    manifest.json      config echo plus sha256 of every artifact

The stage table STAGES drives both run_pipeline, which walks it in memory,
and the CLI, whose stage subcommands each run one row from disk. What a stage
subcommand reads back from disk is checked in debatesum.artifacts, which only
those commands import.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from functools import cached_property
from importlib import import_module
from math import fsum, gcd
from operator import add
from pathlib import Path
from typing import Callable, Collection, Mapping, NamedTuple

from .annotate import (
    UNLABELED,
    Gazetteer,
    SynonymTable,
    Term,
    annotate_sentence,
    canonical_label,
    load_gazetteer,
    load_lexicon_terms,
    load_synonyms,
)
from .assets import default_conjunctive_adverbs_path, default_stopwords
from .canonical_json import to_json_bytes
from .corpus import (
    LLR_THRESHOLD_P001, SIDES, DebateTopic, Feature, load_corpus, load_gold, read_json, salient_indices,
)
from .errors import ComputationError, ConfigError, DebatesumError, ParseError, ValidationError

# Algorithm functions (and the classes a stage builds) by module: each name is a
# global that imports its module when called and forwards the call, so a CLI process
# loads only its stage's algorithms. Call them through these globals: bench/tracing.py
# wraps them by name on this module (``rouge`` only for that: no stage calls it).
_DEFERRED = {
    "alignment": ("align_clusters",),
    "chart": ("build_chart", "render_chart"),
    "evalkit": ("rouge", "rouge_batch", "silhouette"),
    "labeling": ("mi_label", "shared_term_label", "term_index", "tfidf_labels"),
    "saliency": ("Lexicons", "extract_topic_signatures", "load_embeddings", "score_comment"),
    "term_clustering": ("cluster_by_shared_term", "merge_synonymous_clusters"),
    "vector_clustering": ("build_similarity_matrix", "build_term_vectors", "pca_fit_transform", "xmeans"),
}


def _deferred(module: str, name: str) -> Callable:
    def forward(*args, **kwargs):
        return getattr(sys.modules.get(module) or import_module(module), name)(*args, **kwargs)

    return forward


for _module, _names in _DEFERRED.items():
    globals().update({name: _deferred(f"{__package__}.{_module}", name) for name in _names})

CLUSTER_METHODS = ("term", "xmeans")
LABEL_METHODS = ("shared", "tfidf", "mi")
Selections = dict[str, dict[Feature, tuple[str, ...]]]  # comment id -> feature -> selected ids


class PipelineConfig(NamedTuple):
    corpus_path: Path
    gazetteer_path: Path
    synonyms_path: Path
    output_dir: Path
    gold_path: Path | None = None
    embeddings_path: Path | None = None
    feature: Feature = Feature.SP
    ratio: float = 0.2
    signature_threshold: float = LLR_THRESHOLD_P001
    clustering_method: str = "xmeans"
    labeling_method: str = "mi"
    alignment_threshold: float = 0.6
    variance_target: float = 0.95
    k_min: int = 2
    k_max: int = 25
    seed: int = 0

    def echo(self) -> dict:
        out = self._asdict()
        for key, value in out.items():
            if isinstance(value, Path):
                out[key] = str(value)
            elif isinstance(value, Feature):
                out[key] = value.value
        return out


_CONFIG_KEYS = PipelineConfig._fields


def _config_value(key: str, kind: str, value: object, base: Path):
    """A file or flag value for the field ``key`` annotated ``kind``; a
    relative path resolves against ``base``."""
    if kind.startswith("Path"):
        if not isinstance(value, str):
            raise ConfigError(f"config key {key!r} must be a path string, not {value!r}")
        path = Path(value)
        return path if path.is_absolute() else base / path
    if kind == "str":
        return str(value)
    if kind in ("int", "float") and isinstance(value, (bool, str)):
        raise ConfigError(f"config key {key!r} must be a number, not {value!r}")
    if kind == "int" and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"config key {key!r} must be a whole number, not {value!r}")
    cast = {"int": int, "float": float, "Feature": lambda v: Feature(str(v).upper())}[kind]
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key!r} has an invalid value: {value!r}") from exc


def load_config(path: str | Path, overrides: Mapping[str, object] | None = None) -> PipelineConfig:
    """Read a JSON config; relative paths resolve against the config file.

    ``overrides`` (command-line flags) win over file values. A key that is
    absent, or a path key that is null, takes its field's default.
    """
    path = Path(path)
    try:
        raw = read_json(path)
    except ParseError as exc:
        raise ConfigError(f"config is {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw).difference(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    values = {}
    for name, annotation in PipelineConfig.__annotations__.items():
        kind = annotation.__forward_arg__  # the annotation's text
        if name not in merged or (merged[name] is None and kind.startswith("Path")):
            if name not in PipelineConfig._field_defaults:
                raise ConfigError(f"config key {name!r} is required")
            continue
        values[name] = _config_value(name, kind, merged[name], path.parent)
    config = PipelineConfig(**values)
    validate_config(config)
    return config


def validate_config(config: PipelineConfig) -> None:
    for key in ("corpus_path", "gazetteer_path", "synonyms_path", "gold_path", "embeddings_path"):
        p = getattr(config, key)
        if p is not None and not Path(p).is_file():  # only the last two may be None
            raise ConfigError(f"{key} does not exist: {p}")
    if config.clustering_method not in CLUSTER_METHODS:
        raise ConfigError(f"clustering_method must be one of {CLUSTER_METHODS}")
    if config.labeling_method not in LABEL_METHODS:
        raise ConfigError(f"labeling_method must be one of {LABEL_METHODS}")
    for key in ("ratio", "alignment_threshold", "variance_target"):
        if not 0.0 < getattr(config, key) <= 1.0:
            raise ConfigError(f"{key} must be in (0, 1]")
    if not 1 <= config.k_min <= config.k_max:
        raise ConfigError("need 1 <= k_min <= k_max")
    if config.seed < 0:
        raise ConfigError("seed must be >= 0")
    if config.signature_threshold <= 0:
        raise ConfigError("signature_threshold must be > 0")


class PipelineInputs:
    """What the stages read from the config's input files, and the run's selections.

    The gazetteer and synonym table load at once. The corpus, gold, lexicons
    and selections load on first access, so a stage that needs only the term
    tables (cluster, align, eval silhouette) never parses the corpus.
    ``selections`` is ``comment_selections`` for ``features`` (by default the
    configured feature alone): the select stage and the ROUGE table of one
    run read this one value.
    """

    def __init__(self, config: PipelineConfig, features: tuple[Feature, ...] | None = None):
        self.config = config
        self.features = features or (config.feature,)
        self.gazetteer = load_gazetteer(config.gazetteer_path)
        self.synonyms = load_synonyms(config.synonyms_path)

    @cached_property
    def corpus(self) -> list[DebateTopic]:
        return load_corpus(self.config.corpus_path)

    @cached_property
    def gold(self) -> list | None:
        return load_gold(self.config.gold_path, self.corpus) if self.config.gold_path else None

    @cached_property
    def lexicons(self) -> Lexicons:
        path = self.config.embeddings_path
        return Lexicons(
            conjunctive_adverbs=load_lexicon_terms(default_conjunctive_adverbs_path()),
            climate_terms=self.gazetteer.terms,
            embeddings=load_embeddings(path) if path else None,
        )

    @cached_property
    def selections(self) -> Selections:
        config = self.config
        return comment_selections(
            self.corpus, self.lexicons, config.ratio, config.signature_threshold, self.features
        )


def load_inputs(config: PipelineConfig, features: tuple[Feature, ...] | None = None) -> PipelineInputs:
    return PipelineInputs(config, features)


# ---------------------------------------------------------------------------
# stage computations (JSON-able in, JSON-able out)
# ---------------------------------------------------------------------------


def compute_annotations(
    corpus: list[DebateTopic],
    gazetteer: Gazetteer,
    synonyms: SynonymTable,
    seed: int = 0,
) -> dict:
    topics = []
    for topic in corpus:
        sentences = []
        for comment in topic.comments:
            for sentence in comment.sentences:
                annotations = annotate_sentence(sentence, gazetteer)
                sentences.append(
                    {
                        "sentence_id": sentence.id,
                        "annotations": [
                            {
                                "term": a.term,
                                "canonical": canonical_label(a.term, synonyms),
                                "start": a.start,
                                "end": a.end,
                            }
                            for a in annotations
                        ],
                    }
                )
        topics.append({"topic_id": topic.id, "sentences": sentences})
    return {"seed": seed, "topics": topics}


def _token_counts(topics: list[DebateTopic]) -> Counter:
    return Counter(
        t for topic in topics for c in topic.comments for s in c.sentences for t in s.tokens
    )


def topic_signatures_for(
    corpus: list[DebateTopic],
    topic: DebateTopic,
    threshold: float,
    corpus_counts: Counter | None = None,
    topic_counts: Counter | None = None,
) -> list:
    """Leave-one-out topic signatures: this topic's tokens vs all other topics'.

    The background is the corpus token counts minus this topic's, so passing
    ``corpus_counts`` (``_token_counts(corpus)``) and ``topic_counts``
    (``_token_counts([topic])``) makes each call linear in the topic's distinct
    tokens. A single-topic corpus has no background, which disables the
    feature (empty signature list, COS_TPS scores 0).
    """
    foreground = topic_counts or _token_counts([topic])
    background = (corpus_counts or _token_counts(corpus)) - foreground
    if not foreground or not background:
        return []
    return extract_topic_signatures(
        foreground, background, threshold=threshold, stopwords=default_stopwords()
    )


def comment_selections(
    corpus: list[DebateTopic],
    lexicons: Lexicons,
    ratio: float = 0.2,
    signature_threshold: float = LLR_THRESHOLD_P001,
    features: Collection[Feature] = tuple(Feature),
) -> Selections:
    """comment id -> feature -> ids of the sentences the feature selects.

    Each comment is scored once, for ``features`` only; only the selected
    ids are kept. Topic signatures are computed, once per topic from its
    token counts (summed for the corpus's), only when COS_TPS or CB is among
    ``features``. ``compute_salient`` and ``compute_rouge_table`` read the
    result; a run computes it once (``PipelineInputs.selections``).
    """
    signed = Feature.COS_TPS in features or Feature.CB in features
    topic_counts = [_token_counts([topic]) if signed else None for topic in corpus]
    corpus_counts = Counter()
    for counts in filter(None, topic_counts):
        corpus_counts.update(counts)
    selections = {}
    for topic, counts in zip(corpus, topic_counts):
        signatures = (
            topic_signatures_for(corpus, topic, signature_threshold, corpus_counts, counts)
            if signed else []
        )
        for comment in topic.comments:
            scores = score_comment(comment, topic, lexicons, signatures, features)
            sentences = comment.sentences
            selections[comment.id] = {
                f: tuple(sentences[i].id for i in salient_indices(scores.column(f), ratio))
                for f in features
            }
    return selections


def compute_salient(
    corpus: list[DebateTopic],
    selections: Selections,
    feature: Feature = Feature.SP,
    ratio: float = 0.2,
    seed: int = 0,
) -> dict:
    """Salient sentence ids per comment for ``feature``, read from
    ``selections`` (``comment_selections`` at ``ratio``, ``feature`` among
    its features); ``ratio`` and ``seed`` are echoed in the document."""
    topics = []
    for topic in corpus:
        comments = [
            {
                "comment_id": comment.id,
                "side": comment.side,
                "sentence_ids": list(selections[comment.id][feature]),
            }
            for comment in topic.comments
        ]
        topics.append({"topic_id": topic.id, "comments": comments})
    return {"feature": feature.value, "ratio": ratio, "seed": seed, "topics": topics}


def canonical_terms_by_sentence(annotations_doc: dict) -> dict[str, list[Term]]:
    """sentence id -> canonical term occurrences (with repeats), corpus-wide."""
    return {
        sentence["sentence_id"]: [a["canonical"] for a in sentence["annotations"]]
        for topic in annotations_doc["topics"] for sentence in topic["sentences"]
    }


def _terms(docs: dict) -> dict[str, list[Term]]:
    """``canonical_terms_by_sentence(docs["annotations"])``, built on first use
    and kept in ``docs`` as "terms", so the stages of one run share it."""
    if "terms" not in docs:
        docs["terms"] = canonical_terms_by_sentence(docs["annotations"])
    return docs["terms"]


def _salient_by_topic_side(salient_doc: dict) -> dict[str, dict[str, list[str]]]:
    out: dict[str, dict[str, list[str]]] = {}
    for topic in salient_doc["topics"]:
        sides: dict[str, list[str]] = {side: [] for side in SIDES}
        for comment in topic["comments"]:
            sides[comment["side"]].extend(comment["sentence_ids"])
        out[topic["topic_id"]] = sides
    return out


def _cluster_side_term(
    topic_id: str,
    side: str,
    sentence_ids: list[str],
    terms: dict[str, list[Term]],
    synonyms: SynonymTable,
) -> dict:
    clusters, unclustered = cluster_by_shared_term({sid: terms.get(sid, []) for sid in sentence_ids})
    merged = merge_synonymous_clusters(clusters, synonyms)
    # the merge keeps a canonical label as it is: a label it renamed is not canonical
    stray = next((label for label in clusters if label not in merged), None)
    if stray is not None:
        raise ValidationError(
            f"term {stray!r} of topic {topic_id!r}, side {side!r}, in annotations.json "
            "is not canonical under the config's synonyms"
        )
    return {
        "clusters": [
            {
                "cluster_id": f"{topic_id}/{side}:term:{label}",
                "label": label,
                "members": members,
            }
            for label, members in merged.items()
        ],
        "unclustered": unclustered,
        "k": len(merged),
        "bic": None,
        "points": None,
    }


def _vocabulary(gazetteer: Gazetteer, synonyms: SynonymTable) -> list[Term]:
    """Canonical gazetteer terms in text order: the axes of every term vector."""
    return sorted({canonical_label(t, synonyms) for t in gazetteer.terms.values()})


def _side_space(
    sentence_ids: list[str],
    terms: dict[str, list[Term]],
    vocabulary: list[Term],
    variance_target: float,
):
    """The PCA reduction of one side's term vectors' cosine similarity matrix.

    Returns ``(ids, excluded, reduced)``: the ids of the sentences with a
    term vector, the others, and the reduced rows of ``ids`` (None when
    fewer than two sentences have a term vector). Proportional term vectors
    have one similarity profile, so every sentence gets the reduced row of
    the first sentence with its vector's direction: copies are then bitwise
    equal rather than equal up to float noise.
    """
    ids, counts, excluded = build_term_vectors(
        {sid: terms.get(sid, []) for sid in sentence_ids}, vocabulary
    )
    if len(ids) < 2:
        return ids, excluded, None
    _, reduced = pca_fit_transform(build_similarity_matrix(counts), variance_target=variance_target)
    first: dict[tuple, int] = {}
    for i, row in enumerate(counts):
        nonzero = [(j, int(x)) for j, x in enumerate(row) if x]
        divisor = gcd(*(count for _, count in nonzero))
        direction = tuple((j, count // divisor) for j, count in nonzero)
        reduced[i] = reduced[first.setdefault(direction, i)]
    return ids, excluded, reduced


def _cluster_side_xmeans(
    topic_id: str,
    side: str,
    sentence_ids: list[str],
    terms: dict[str, list[Term]],
    vocabulary: list[Term],
    config: PipelineConfig,
) -> dict:
    ids, excluded, reduced = _side_space(sentence_ids, terms, vocabulary, config.variance_target)
    prefix = f"{topic_id}/{side}:x"
    if not ids:
        return {"clusters": [], "unclustered": excluded, "k": 0, "bic": None, "points": None}
    # one sentence, or all similarity profiles identical: a single cluster
    if reduced is None or not reduced[0]:
        return {
            "clusters": [{"cluster_id": prefix + "0", "label": None, "members": ids}],
            "unclustered": excluded,
            "k": 1,
            "bic": None,
            "points": {sid: [0.0, 0.0] for sid in ids},
        }
    n = len(ids)
    result = xmeans(reduced, k_min=min(config.k_min, n), k_max=min(config.k_max, n), seed=config.seed)
    members: list[list[str]] = [[] for _ in range(result.k)]
    for sid, j in zip(ids, result.assignments):
        members[j].append(sid)
    clusters = [
        {"cluster_id": f"{prefix}{j}", "label": None, "members": group}
        for j, group in enumerate(members)
    ]
    bic = result.bic
    return {
        "clusters": clusters,
        "unclustered": excluded,
        "k": result.k,
        "bic": None if bic != bic else bic,  # NaN is not valid JSON
        "points": dict(zip(ids, reduced)),
    }


def compute_clusters(
    terms: dict, salient_doc: dict, synonyms: SynonymTable, gazetteer: Gazetteer, config: PipelineConfig
) -> dict:
    """Clusters per topic and side of the salient sentences, topics in the
    salient document's order (the corpus order), so no corpus is needed.
    ``terms`` is the canonical-terms map (``canonical_terms_by_sentence``)."""
    salient = _salient_by_topic_side(salient_doc)
    vocabulary = _vocabulary(gazetteer, synonyms) if config.clustering_method == "xmeans" else []
    topics = []
    for topic_id, side_ids in salient.items():
        sides = {}
        for side, ids in side_ids.items():
            if config.clustering_method == "term":
                sides[side] = _cluster_side_term(topic_id, side, ids, terms, synonyms)
            else:
                sides[side] = _cluster_side_xmeans(topic_id, side, ids, terms, vocabulary, config)
        counts = {side: len(side_doc["clusters"]) for side, side_doc in sides.items()}
        counts["pooled"] = sum(counts.values())
        topics.append({"topic_id": topic_id, "sides": sides, "cluster_counts": counts})
    return {
        "method": config.clustering_method,
        "seed": config.seed,
        "k_min": config.k_min,
        "k_max": config.k_max,
        "variance_target": config.variance_target,
        "topics": topics,
    }


def compute_labels(clusters_doc: dict, terms: dict, method: str, seed: int = 0) -> dict:
    if method not in LABEL_METHODS:
        raise ConfigError(f"labeling_method must be one of {LABEL_METHODS}")
    entries = []
    for topic in clusters_doc["topics"]:
        for side in SIDES:
            clusters = topic["sides"][side]["clusters"]
            if not clusters:
                continue
            if method == "shared":
                for c in clusters:
                    if c["label"] is None:
                        raise ComputationError(
                            f"cluster {c['cluster_id']} has no shared term; "
                            "use tfidf or mi labeling for xmeans clusters"
                        )
                    candidate = shared_term_label(c["label"])
                    entries.append(_label_entry(c["cluster_id"], candidate))
            elif method == "tfidf":
                counts = [
                    Counter(t for sid in c["members"] for t in terms.get(sid, []))
                    for c in clusters
                ]
                for c, candidate in zip(clusters, tfidf_labels(counts)):
                    entries.append(_label_entry(c["cluster_id"], candidate))
            else:
                index = term_index([c["members"] for c in clusters], terms)
                for c in clusters:
                    candidate = mi_label(c["members"], index)
                    entries.append(_label_entry(c["cluster_id"], candidate))
    entries.sort(key=lambda e: e["cluster_id"])
    return {"seed": seed, "clusters": entries}


def _label_entry(cluster_id: str, candidate) -> dict:
    runner = candidate.runner_up
    return {
        "cluster_id": cluster_id,
        "method": candidate.method,
        "label": candidate.term,
        "score": candidate.score,
        "runner_up": None if runner is None else list(runner),
    }


def _cluster_label(cluster: dict, label_by_id: Mapping[str, str]) -> Term | None:
    """A cluster's label: its own (a shared-term cluster's), else its
    ``labels.json`` entry in ``label_by_id``; None if it has neither."""
    return cluster["label"] if cluster["label"] is not None else label_by_id.get(cluster["cluster_id"])


def compute_alignment(
    clusters_doc: dict, labels_doc: dict, synonyms: SynonymTable, threshold: float = 0.6, seed: int = 0
) -> dict:
    """Aligned pairs and dropped clusters per topic. A cluster labeled
    "(unlabeled)" has no label content to compare, so it is dropped unaligned."""
    label_by_id = {e["cluster_id"]: e["label"] for e in labels_doc["clusters"]}
    topics = []
    for topic in clusters_doc["topics"]:
        held = {  # cluster id -> (side, label)
            c["cluster_id"]: (side, _cluster_label(c, label_by_id))
            for side in SIDES
            for c in topic["sides"][side]["clusters"]
        }
        agree, disagree = (
            {cid: label for cid, (s, label) in held.items() if s == side and label != UNLABELED}
            for side in SIDES
        )
        pairs, dropped = align_clusters(agree, disagree, synonyms, threshold)
        unlabeled = [cid for cid, (_, label) in held.items() if label == UNLABELED]
        topics.append(
            {
                "topic_id": topic["topic_id"],
                "pairs": pairs,
                "dropped": [
                    {"cluster_id": cid, "side": held[cid][0], "label": held[cid][1]}
                    for cid in dropped + unlabeled
                ],
            }
        )
    return {"threshold": threshold, "seed": seed, "topics": topics}


def compute_charts(clusters_doc: dict, alignment_doc: dict) -> dict:
    """Topic id -> chart document of the topic's aligned pairs, each bar's
    heights the member counts of its clusters."""
    sizes = {
        c["cluster_id"]: len(c["members"])
        for topic in clusters_doc["topics"]
        for side in SIDES
        for c in topic["sides"][side]["clusters"]
    }
    return {
        topic["topic_id"]: build_chart(topic["topic_id"], topic["pairs"], sizes)
        for topic in alignment_doc["topics"]
    }


def compute_rouge_table(corpus: list[DebateTopic], gold, selections: Selections) -> dict:
    """Per-feature ROUGE-1/2/SU4 against the gold selections (Table-1 shape).

    ``selections`` is ``comment_selections`` for all nine features. Each
    comment's distinct selections and references are scored in one batch
    (``rouge_batch``); every feature that chose a selection gets its scores,
    added up in comment order.
    """
    from .evalkit import RougeVariant
    gold_by_comment: dict[str, list[frozenset[str]]] = {}
    for annotation in gold:
        gold_by_comment.setdefault(annotation.comment_id, []).append(annotation.selected_sentence_ids)

    totals = [[[0.0] * 3 for _ in RougeVariant] for _ in Feature]
    scored = 0
    for topic in corpus:
        for comment in topic.comments:
            refs_ids = gold_by_comment.get(comment.id)
            if not refs_ids:
                continue
            index: dict[tuple[str, ...], int] = {}
            chosen = [index.setdefault(selections[comment.id][f], len(index)) for f in Feature]
            scores = rouge_batch(comment.sentences, [*map(set, index), *refs_ids], len(index))
            for feature_totals, j in zip(totals, chosen):
                for total, score in zip(feature_totals, scores[j]):
                    total[:] = map(add, total, score)
            scored += 1
    # None: no comment has gold
    means = [[[x / scored for x in total] for total in f] for f in totals] if scored else None
    return {feature.value: {
        variant.value: means and dict(zip(("recall", "precision", "f1"), means[f][v]))
        for v, variant in enumerate(RougeVariant)
    } for f, feature in enumerate(Feature)}


def compute_silhouette_report(
    clusters_doc: dict, terms: dict, gazetteer: Gazetteer, synonyms: SynonymTable
) -> dict:
    """Mean silhouette per (topic, side) clustering, plus the overall mean.

    Term clusters are soft: each membership becomes one instance of the
    sentence's term-count vector, scored with cosine distance; a member with
    no term in the config's vocabulary is a ValidationError. X-means
    clusters are scored on their reduced points with Euclidean distance.
    """
    method = clusters_doc["method"]
    vocabulary = _vocabulary(gazetteer, synonyms) if method == "term" else []
    index = {t: i for i, t in enumerate(vocabulary)}
    entries = []
    for topic in clusters_doc["topics"]:
        for side in SIDES:
            side_doc = topic["sides"][side]
            clusters = side_doc["clusters"]
            if len(clusters) < 2:
                continue
            members = [sid for c in clusters for sid in c["members"]]
            assignments = [j for j, c in enumerate(clusters) for _ in c["members"]]
            if method == "term":
                # one row per membership: the sentence's count of each vocabulary term
                points = []
                for sid in members:
                    row = [0] * len(vocabulary)
                    for t in terms.get(sid, []):
                        if t in index:
                            row[index[t]] += 1
                    if not any(row):
                        raise ValidationError(
                            f"sentence {sid!r} of topic {topic['topic_id']!r}, side "
                            f"{side!r}, has no term in the config's vocabulary"
                        )
                    points.append(row)
                report = silhouette(points, assignments, metric="cosine_distance")
            else:
                points = [side_doc["points"][sid] for sid in members]
                try:
                    report = silhouette(points, assignments, metric="euclidean")
                except ComputationError as e:
                    raise ComputationError(
                        f"topic {topic['topic_id']!r}, side {side!r}: {e}"
                    ) from e
            entries.append(
                {
                    "topic_id": topic["topic_id"],
                    "side": side,
                    "clusters": len(clusters),
                    "mean_silhouette": report.mean,
                }
            )
    overall = (
        fsum(e["mean_silhouette"] for e in entries) / len(entries) if entries else None
    )
    return {"method": method, "per_clustering": entries, "mean": overall}


def compute_evaluation(
    inputs: PipelineInputs, clusters_doc: dict, terms: dict, config: PipelineConfig
) -> dict:
    rouge_table = None
    if inputs.gold:
        rouge_table = compute_rouge_table(inputs.corpus, inputs.gold, inputs.selections)
    silhouette_report = compute_silhouette_report(
        clusters_doc, terms, inputs.gazetteer, inputs.synonyms
    )
    return {"seed": config.seed, "rouge": rouge_table, "silhouette": silhouette_report}


# ---------------------------------------------------------------------------
# artifact I/O
# ---------------------------------------------------------------------------


def make_dir(path: str | Path) -> Path:
    """``path`` as a directory, made with its parents if missing: ConfigError
    naming it if it cannot be."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the directory {path}: {exc.strerror}") from exc
    return path


def write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path``: ConfigError naming it if it cannot be written."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def write_json(path: str | Path, doc: dict) -> None:
    write_bytes(path, to_json_bytes(doc))


def write_files(out: Path, files: dict[str, bytes]) -> None:
    """Write each ``name: data`` of ``files`` under ``out``, all or none: if a
    write fails, every one of those names that is a file there, an earlier
    run's too, is removed and the error propagates."""
    try:
        for name, data in files.items():
            write_bytes(out / name, data)
    except Exception:
        for name in files:
            if (out / name).is_file():  # not a directory in the way of a write
                (out / name).unlink()
        raise


def slugify(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]+", "_", name)


class Stage(NamedTuple):
    """One row of the stage table: ``compute(config, inputs, docs)`` returns the
    stage's document from the loaded inputs (None unless ``uses_inputs``) and
    ``docs``, which maps artifact stems to earlier documents (and "terms" to
    the canonical-terms map, once a stage has read it)."""

    command: str  # CLI subcommand; names the stage in error messages
    artifact: str  # stem of the artifact it writes; the stage key
    needs: tuple[str, ...]  # earlier artifacts it reads
    uses_inputs: bool  # whether it reads the config's input files (PipelineInputs)
    help: str
    compute: Callable[[PipelineConfig, PipelineInputs | None, dict], object]


# The rows call compute_* through this module's globals at run time, so a
# wrapper installed on the module (bench/tracing.py) sees every call.
STAGES = (
    Stage("annotate", "annotations", (), True, "annotate sentences with ontology terms",
          lambda config, inputs, docs: compute_annotations(
              inputs.corpus, inputs.gazetteer, inputs.synonyms, config.seed)),
    Stage("select", "salient", (), True, "select salient sentences per comment",
          lambda config, inputs, docs: compute_salient(
              inputs.corpus, inputs.selections, config.feature, config.ratio, config.seed)),
    Stage("cluster", "clusters", ("annotations", "salient"), True,
          "cluster the salient sentences of each side",
          lambda config, inputs, docs: compute_clusters(
              _terms(docs), docs["salient"], inputs.synonyms, inputs.gazetteer, config)),
    Stage("label", "labels", ("clusters", "annotations"), False, "label every cluster",
          lambda config, inputs, docs: compute_labels(
              docs["clusters"], _terms(docs), config.labeling_method, config.seed)),
    # align and chart read no salient sentence, and chart no label, but they
    # need salient.json and labels.json so that check_consistency rejects a
    # member of another topic or side and a pair naming an unlabeled cluster
    Stage("align", "alignment", ("clusters", "labels", "salient"), True,
          "align agree and disagree clusters by label",
          lambda config, inputs, docs: compute_alignment(
              docs["clusters"], docs["labels"], inputs.synonyms, config.alignment_threshold,
              config.seed)),
    Stage("chart", "charts", ("clusters", "labels", "alignment", "salient"), False,
          "render the Chart Summary per topic",
          lambda config, inputs, docs: compute_charts(docs["clusters"], docs["alignment"])),
    Stage("eval", "evaluation", ("clusters", "annotations"), True, "evaluation metrics",
          lambda config, inputs, docs: compute_evaluation(
              inputs, docs["clusters"], _terms(docs), config)),
)
STAGE = {stage.artifact: stage for stage in STAGES}


def artifact_files(artifact: str, doc) -> dict[str, bytes]:
    """File name -> bytes for one stage's document.

    Charts become ``chart_<topic>.json`` and ``.html``; every other
    document is ``<artifact>.json``. Two topic ids with one slug, such as
    ``t 1`` and ``t_1``, are a ValidationError: one chart would overwrite the other.
    """
    if artifact != "charts":
        return {f"{artifact}.json": to_json_bytes(doc)}
    files: dict[str, bytes] = {}
    topic_of: dict[str, str] = {}  # slug -> topic id
    for topic_id, chart in doc.items():
        slug = slugify(topic_id)
        if topic_of.setdefault(slug, topic_id) != topic_id:
            raise ValidationError(f"topic ids {topic_of[slug]!r} and {topic_id!r} "
                                  f"both name the chart files chart_{slug}.json and .html")
        files[f"chart_{slug}.json"] = render_chart(chart, "json")
        files[f"chart_{slug}.html"] = render_chart(chart, "html")
    return files


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DebatesumError as exc:
        raise type(exc)(f"[stage {name}] {exc}") from exc


def _sha256() -> Callable:
    """CPython's own SHA-256: hashlib maps OpenSSL (3.6 MiB) for the manifest alone."""
    for module in ("_sha2", "_sha256", "hashlib"):  # _sha2 from Python 3.12
        try:
            return import_module(module).sha256
        except ImportError:
            pass


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage and write all artifacts plus the manifest.

    Returns the manifest document. A stage that fails writes nothing, and a
    write that fails leaves none of the run's files (``write_files``).
    """
    # with gold, the ROUGE table reads all nine features' selections
    inputs = _stage("load", load_inputs, config, tuple(Feature) if config.gold_path else None)
    # a full run parses every input file before the first stage, as the load stage
    _stage("load", lambda: (inputs.corpus, inputs.lexicons, inputs.gold))
    docs: dict = {}
    for stage in STAGES:
        docs[stage.artifact] = _stage(stage.command, stage.compute, config, inputs, docs)
    del inputs, docs["terms"]  # free the corpus, selections and terms map before serializing
    artifacts: dict[str, bytes] = {}
    for stage in STAGES:
        artifacts.update(artifact_files(stage.artifact, docs[stage.artifact]))

    sha256 = _sha256()
    manifest = {
        "config": config.echo(),
        "artifacts": {
            name: "sha256:" + sha256(data).hexdigest()
            for name, data in sorted(artifacts.items())
        },
    }

    write_files(make_dir(config.output_dir), {**artifacts, "manifest.json": to_json_bytes(manifest)})
    return manifest
