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
and the CLI, whose stage subcommands each run one row from disk.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property
from importlib import import_module
from pathlib import Path
from typing import Callable, Mapping

from ._numpy import np
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
    term_text,
)
from .assets import default_conjunctive_adverbs_path, default_stopwords
from .canonical_json import to_json_bytes
from .corpus import DebateTopic, Side, load_corpus, load_gold, read_json
from .errors import ComputationError, ConfigError, DebatesumError, ParseError, ValidationError
from .saliency import (
    Feature,
    LLR_THRESHOLD_P001,
    Lexicons,
    extract_topic_signatures,
    load_embeddings,
    score_comment,
    select_salient,
)

# Algorithm functions (and the one class a stage builds) by module: each name is a
# global that imports its module when called and forwards the call, so a CLI process
# loads only its stage's algorithms. Call them through these globals: bench/tracing.py
# wraps them by name on this module (``rouge`` only for that: no stage calls it).
_DEFERRED = {
    "alignment": ("LabeledCluster", "align_clusters"),
    "chart": ("build_chart", "render_chart"),
    "evalkit": ("rouge", "rouge_batch", "silhouette"),
    "labeling": ("mi_label", "shared_term_label", "tfidf_labels"),
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


@dataclass
class PipelineConfig:
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
        out = asdict(self)
        for key, value in out.items():
            if isinstance(value, Path):
                out[key] = str(value)
            elif isinstance(value, Feature):
                out[key] = value.value
        return out


_CONFIG_KEYS = {f.name for f in fields(PipelineConfig)}


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
    except (TypeError, ValueError) as exc:
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
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    values = {}
    for f in fields(PipelineConfig):  # f.type is the annotation's text
        if f.name not in merged or (merged[f.name] is None and f.type.startswith("Path")):
            if f.default is MISSING:
                raise ConfigError(f"config key {f.name!r} is required")
            continue
        values[f.name] = _config_value(f.name, f.type, merged[f.name], path.parent)
    config = PipelineConfig(**values)
    validate_config(config)
    return config


def validate_config(config: PipelineConfig) -> None:
    for key in ("corpus_path", "gazetteer_path", "synonyms_path"):
        p = getattr(config, key)
        if not Path(p).is_file():
            raise ConfigError(f"{key} does not exist: {p}")
    for key in ("gold_path", "embeddings_path"):
        p = getattr(config, key)
        if p is not None and not Path(p).is_file():
            raise ConfigError(f"{key} does not exist: {p}")
    if config.clustering_method not in CLUSTER_METHODS:
        raise ConfigError(f"clustering_method must be one of {CLUSTER_METHODS}")
    if config.labeling_method not in LABEL_METHODS:
        raise ConfigError(f"labeling_method must be one of {LABEL_METHODS}")
    if not 0.0 < config.ratio <= 1.0:
        raise ConfigError("ratio must be in (0, 1]")
    if not 0.0 < config.alignment_threshold <= 1.0:
        raise ConfigError("alignment_threshold must be in (0, 1]")
    if not 0.0 < config.variance_target <= 1.0:
        raise ConfigError("variance_target must be in (0, 1]")
    if not 1 <= config.k_min <= config.k_max:
        raise ConfigError("need 1 <= k_min <= k_max")
    if config.seed < 0:
        raise ConfigError("seed must be >= 0")


class PipelineInputs:
    """What the stages read from the config's input files.

    The gazetteer and synonym table load at once. The corpus, gold and
    lexicons load on first access, so a stage that needs only the term tables
    (cluster, align, eval silhouette) never parses the corpus. ``selection_cache``
    holds ``comment_selections`` results for this corpus, which the select
    stage and the ROUGE table share.
    """

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.gazetteer = load_gazetteer(config.gazetteer_path)
        self.synonyms = load_synonyms(config.synonyms_path)
        self.selection_cache: dict = {}

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


def load_inputs(config: PipelineConfig) -> PipelineInputs:
    return PipelineInputs(config)


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
                                "term": term_text(a.term),
                                "canonical": term_text(canonical_label(a.term, synonyms)),
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
) -> list:
    """Leave-one-out topic signatures: this topic's tokens vs all other topics'.

    The background is the corpus token counts minus this topic's, so passing
    ``corpus_counts`` (``_token_counts(corpus)``) makes each call linear in
    the topic's size. A single-topic corpus has no background, which disables
    the feature (empty signature list, COS_TPS scores 0).
    """
    if corpus_counts is None:
        corpus_counts = _token_counts(corpus)
    foreground = _token_counts([topic])
    background = corpus_counts - foreground
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
    cache: dict | None = None,
) -> dict[str, dict[Feature, tuple[str, ...]]]:
    """comment id -> feature -> ids of the sentences the feature selects.

    Each topic's signatures are computed once and each comment is scored
    once; only the selected ids are kept. ``cache`` maps (ratio, threshold)
    to earlier results for the same corpus and lexicons, and is filled here.
    """
    key = (ratio, signature_threshold)
    if cache is not None and key in cache:
        return cache[key]
    corpus_counts = _token_counts(corpus)
    selections = {}
    for topic in corpus:
        signatures = topic_signatures_for(corpus, topic, signature_threshold, corpus_counts)
        for comment in topic.comments:
            scores = score_comment(comment, topic, lexicons, signatures)
            selections[comment.id] = {
                f: tuple(select_salient(comment, scores, feature=f, ratio=ratio)) for f in Feature
            }
    if cache is not None:
        cache[key] = selections
    return selections


def compute_salient(
    corpus: list[DebateTopic],
    lexicons: Lexicons,
    feature: Feature = Feature.SP,
    ratio: float = 0.2,
    signature_threshold: float = LLR_THRESHOLD_P001,
    seed: int = 0,
    cache: dict | None = None,
) -> dict:
    """Salient sentence ids per comment for ``feature``; ``cache`` as in
    ``comment_selections``."""
    selections = comment_selections(corpus, lexicons, ratio, signature_threshold, cache)
    topics = []
    for topic in corpus:
        comments = [
            {
                "comment_id": comment.id,
                "side": comment.side.value,
                "sentence_ids": list(selections[comment.id][feature]),
            }
            for comment in topic.comments
        ]
        topics.append({"topic_id": topic.id, "comments": comments})
    return {"feature": feature.value, "ratio": ratio, "seed": seed, "topics": topics}


def _canonical_terms_by_sentence(annotations_doc: dict) -> dict[str, list[tuple[str, ...]]]:
    """sentence id -> canonical term occurrences (with repeats), corpus-wide."""
    out: dict[str, list[tuple[str, ...]]] = {}
    for topic in annotations_doc["topics"]:
        for sentence in topic["sentences"]:
            out[sentence["sentence_id"]] = [
                tuple(a["canonical"].split()) for a in sentence["annotations"]
            ]
    return out


def _salient_by_topic_side(salient_doc: dict) -> dict[str, dict[str, list[str]]]:
    out: dict[str, dict[str, list[str]]] = {}
    for topic in salient_doc["topics"]:
        sides: dict[str, list[str]] = {s.value: [] for s in Side}
        for comment in topic["comments"]:
            sides[comment["side"]].extend(comment["sentence_ids"])
        out[topic["topic_id"]] = sides
    return out


def _cluster_side_term(
    topic_id: str,
    side: Side,
    sentence_ids: list[str],
    terms: dict[str, list[tuple[str, ...]]],
    synonyms: SynonymTable,
) -> dict:
    terms_by_sentence = {sid: terms.get(sid, []) for sid in sentence_ids}
    clusters, unclustered = cluster_by_shared_term(terms_by_sentence, side)
    merged = merge_synonymous_clusters(clusters, synonyms)
    return {
        "clusters": [
            {
                "cluster_id": f"{topic_id}/{c.cluster_id}",
                "label": term_text(c.label),
                "members": list(c.members),
            }
            for c in merged
        ],
        "unclustered": unclustered,
        "k": len(merged),
        "bic": None,
        "points": None,
    }


def _vocabulary(gazetteer: Gazetteer, synonyms: SynonymTable) -> list[tuple[str, ...]]:
    """Canonical gazetteer terms in text order: the axes of every term vector."""
    return sorted({canonical_label(t, synonyms) for t in gazetteer.terms}, key=term_text)


def _side_space(
    sentence_ids: list[str],
    terms: dict[str, list[tuple[str, ...]]],
    vocabulary: list[tuple[str, ...]],
    variance_target: float,
):
    """Term vectors of one side, their cosine similarity matrix and its PCA reduction.

    Returns ``(vectors, excluded, matrix, reduced)``; ``matrix`` and
    ``reduced`` are None when fewer than two sentences have a term vector.
    Proportional term vectors have one similarity profile, so every sentence
    gets the reduced row of the first sentence with its vector's direction:
    copies are then bitwise equal rather than equal up to float noise.
    """
    terms_by_sentence = {sid: terms.get(sid, []) for sid in sentence_ids}
    vectors, excluded = build_term_vectors(terms_by_sentence, vocabulary)
    if len(vectors) < 2:
        return vectors, excluded, None, None
    matrix = build_similarity_matrix(vectors)
    _, reduced = pca_fit_transform(matrix.values, variance_target=variance_target)
    first: dict[tuple[int, ...], int] = {}
    for i, v in enumerate(vectors):
        counts = v.counts.astype(np.int64)
        direction = tuple((counts // np.gcd.reduce(counts)).tolist())
        reduced[i] = reduced[first.setdefault(direction, i)]
    return vectors, excluded, matrix, reduced


def _cluster_side_xmeans(
    topic_id: str,
    side: Side,
    sentence_ids: list[str],
    terms: dict[str, list[tuple[str, ...]]],
    vocabulary: list[tuple[str, ...]],
    config: PipelineConfig,
) -> dict:
    vectors, excluded, matrix, reduced = _side_space(
        sentence_ids, terms, vocabulary, config.variance_target
    )
    prefix = f"{topic_id}/{side.value}:x"
    if len(vectors) == 0:
        return {"clusters": [], "unclustered": excluded, "k": 0, "bic": None, "points": None}
    # one sentence, or all similarity profiles identical: a single cluster
    if matrix is None or reduced.shape[1] == 0:
        return {
            "clusters": [
                {
                    "cluster_id": prefix + "0",
                    "label": None,
                    "members": [v.sentence_id for v in vectors],
                }
            ],
            "unclustered": excluded,
            "k": 1,
            "bic": None,
            "points": {v.sentence_id: [0.0, 0.0] for v in vectors},
        }
    n = reduced.shape[0]
    result = xmeans(
        reduced,
        k_min=min(config.k_min, n),
        k_max=min(config.k_max, n),
        seed=config.seed,
    )
    clusters = []
    for j in range(result.k):
        members = [matrix.labels[i] for i in range(n) if result.assignments[i] == j]
        clusters.append({"cluster_id": f"{prefix}{j}", "label": None, "members": members})
    bic = result.bic
    return {
        "clusters": clusters,
        "unclustered": excluded,
        "k": result.k,
        "bic": None if bic != bic else bic,  # NaN is not valid JSON
        "points": {
            matrix.labels[i]: [float(x) for x in reduced[i]] for i in range(n)
        },
    }


def compute_clusters(
    annotations_doc: dict,
    salient_doc: dict,
    synonyms: SynonymTable,
    gazetteer: Gazetteer,
    config: PipelineConfig,
) -> dict:
    """Clusters per topic and side of the salient sentences, topics in the
    salient document's order (the corpus order), so no corpus is needed."""
    terms = _canonical_terms_by_sentence(annotations_doc)
    salient = _salient_by_topic_side(salient_doc)
    vocabulary = _vocabulary(gazetteer, synonyms)
    topics = []
    for topic_id, side_ids in salient.items():
        sides = {}
        for side in Side:
            ids = side_ids[side.value]
            if config.clustering_method == "term":
                sides[side.value] = _cluster_side_term(topic_id, side, ids, terms, synonyms)
            else:
                sides[side.value] = _cluster_side_xmeans(
                    topic_id, side, ids, terms, vocabulary, config
                )
        counts = {side.value: len(sides[side.value]["clusters"]) for side in Side}
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


def compute_labels(clusters_doc: dict, annotations_doc: dict, method: str, seed: int = 0) -> dict:
    if method not in LABEL_METHODS:
        raise ConfigError(f"labeling_method must be one of {LABEL_METHODS}")
    terms = _canonical_terms_by_sentence(annotations_doc)
    entries = []
    for topic in clusters_doc["topics"]:
        for side in Side:
            side_doc = topic["sides"][side.value]
            clusters = side_doc["clusters"]
            if not clusters:
                continue
            if method == "shared":
                for c in clusters:
                    if c["label"] is None:
                        raise ComputationError(
                            f"cluster {c['cluster_id']} has no shared term; "
                            "use tfidf or mi labeling for xmeans clusters"
                        )
                    candidate = shared_term_label(tuple(c["label"].split()))
                    entries.append(_label_entry(c["cluster_id"], candidate))
            elif method == "tfidf":
                counts = [
                    Counter(tuple(t) for sid in c["members"] for t in terms.get(sid, []))
                    for c in clusters
                ]
                for c, candidate in zip(clusters, tfidf_labels(counts)):
                    entries.append(_label_entry(c["cluster_id"], candidate))
            else:
                member_sets = [c["members"] for c in clusters]
                for c in clusters:
                    candidate = mi_label(c["members"], member_sets, terms)
                    entries.append(_label_entry(c["cluster_id"], candidate))
    entries.sort(key=lambda e: e["cluster_id"])
    return {"seed": seed, "clusters": entries}


def _label_entry(cluster_id: str, candidate) -> dict:
    runner = candidate.runner_up
    return {
        "cluster_id": cluster_id,
        "method": candidate.method.value,
        "label": term_text(candidate.term),
        "score": candidate.score,
        "runner_up": None if runner is None else [term_text(runner[0]), runner[1]],
    }


def _cluster_label(cluster: dict, label_by_id: Mapping[str, str]) -> Term | None:
    """A cluster's label as a term: its own (a shared-term cluster's), else its
    ``labels.json`` entry in ``label_by_id``; None if it has neither."""
    label = cluster["label"] if cluster["label"] is not None else label_by_id.get(cluster["cluster_id"])
    return None if label is None else tuple(label.split())


def compute_alignment(
    clusters_doc: dict, labels_doc: dict, synonyms: SynonymTable, threshold: float = 0.6, seed: int = 0
) -> dict:
    """Aligned pairs and dropped clusters per topic. A cluster labeled
    "(unlabeled)" has no label content to compare, so it is dropped unaligned."""
    label_by_id = {e["cluster_id"]: e["label"] for e in labels_doc["clusters"]}
    topics = []
    for topic in clusters_doc["topics"]:
        sides: dict[Side, list] = {side: [] for side in Side}
        unlabeled = []
        for side in Side:
            for c in topic["sides"][side.value]["clusters"]:
                label = _cluster_label(c, label_by_id)
                cluster = LabeledCluster(cluster_id=c["cluster_id"], side=side, label=label)
                (unlabeled if label == UNLABELED else sides[side]).append(cluster)
        pairs, dropped = align_clusters(sides[Side.AGREE], sides[Side.DISAGREE], synonyms, threshold)
        topics.append(
            {
                "topic_id": topic["topic_id"],
                "pairs": [
                    {"label": p.label, "agree_cluster_id": p.agree_cluster_id,
                     "disagree_cluster_id": p.disagree_cluster_id, "similarity": p.similarity}
                    for p in pairs
                ],
                "dropped": [
                    {"cluster_id": c.cluster_id, "side": c.side.value, "label": term_text(c.label)}
                    for c in dropped + unlabeled
                ],
            }
        )
    return {"threshold": threshold, "seed": seed, "topics": topics}


def compute_charts(clusters_doc: dict, alignment_doc: dict) -> dict:
    """Topic id -> ChartSummary of the topic's aligned pairs, each bar's
    heights the member counts of its clusters."""
    sizes = {
        c["cluster_id"]: len(c["members"])
        for topic in clusters_doc["topics"]
        for side in Side
        for c in topic["sides"][side.value]["clusters"]
    }
    return {
        topic["topic_id"]: build_chart(topic["topic_id"], topic["pairs"], sizes)
        for topic in alignment_doc["topics"]
    }


def compute_rouge_table(
    corpus: list[DebateTopic],
    gold,
    lexicons: Lexicons,
    ratio: float = 0.2,
    signature_threshold: float = LLR_THRESHOLD_P001,
    cache: dict | None = None,
) -> dict:
    """Per-feature ROUGE-1/2/SU4 against the gold selections (Table-1 shape).

    Each comment's distinct selections and references are scored in one
    batch (``rouge_batch``); every feature that chose a selection gets its
    score. ``cache`` as in ``comment_selections``.
    """
    from .evalkit import RougeVariant
    gold_by_comment: dict[str, list[frozenset[str]]] = {}
    for annotation in gold:
        gold_by_comment.setdefault(annotation.comment_id, []).append(
            annotation.selected_sentence_ids
        )
    selections = comment_selections(corpus, lexicons, ratio, signature_threshold, cache)

    table: dict[str, dict] = {}
    per_feature_scores: dict[Feature, dict[RougeVariant, list]] = {
        f: {v: [] for v in RougeVariant} for f in Feature
    }
    for topic in corpus:
        for comment in topic.comments:
            refs_ids = gold_by_comment.get(comment.id)
            if not refs_ids:
                continue
            vocab: dict[str, int] = {}
            ids = np.array(
                [vocab.setdefault(t, len(vocab)) for s in comment.sentences for t in s.tokens],
                dtype=np.int64,
            )
            distinct = list(dict.fromkeys(selections[comment.id].values()))
            # sequence x sentence membership, spread to a sequence x token mask
            mask = np.repeat(
                [[s.id in chosen for s in comment.sentences]
                 for chosen in [*map(set, distinct), *refs_ids]],
                [len(s.tokens) for s in comment.sentences],
                axis=1,
            )
            rows, positions = np.nonzero(mask)
            scores = rouge_batch(ids[positions], rows, len(mask), len(distinct), len(vocab))
            index = {selected: i for i, selected in enumerate(distinct)}
            for feature, selected in selections[comment.id].items():
                for variant, batch in scores.items():
                    per_feature_scores[feature][variant].append(batch[index[selected]])
    for feature in Feature:
        table[feature.value] = {}
        for variant in RougeVariant:
            scores = per_feature_scores[feature][variant]
            if not scores:
                table[feature.value][variant.value] = None
                continue
            k = len(scores)
            table[feature.value][variant.value] = {
                "recall": sum(s.recall for s in scores) / k,
                "precision": sum(s.precision for s in scores) / k,
                "f1": sum(s.f1 for s in scores) / k,
            }
    return table


def compute_silhouette_report(
    clusters_doc: dict,
    annotations_doc: dict,
    gazetteer: Gazetteer,
    synonyms: SynonymTable,
) -> dict:
    """Mean silhouette per (topic, side) clustering, plus the overall mean.

    Term clusters are soft: each membership becomes one instance of the
    sentence's term-count vector, scored with cosine distance. X-means
    clusters are scored on their reduced points with Euclidean distance.
    """
    terms = _canonical_terms_by_sentence(annotations_doc)
    vocabulary = _vocabulary(gazetteer, synonyms)
    index = {t: i for i, t in enumerate(vocabulary)}
    method = clusters_doc["method"]
    entries = []
    for topic in clusters_doc["topics"]:
        for side in Side:
            side_doc = topic["sides"][side.value]
            clusters = side_doc["clusters"]
            if len(clusters) < 2:
                continue
            members = [sid for c in clusters for sid in c["members"]]
            assignments = [j for j, c in enumerate(clusters) for _ in c["members"]]
            if method == "term":
                # one row per membership: its (row, term) cells counted into one matrix
                width = len(vocabulary)
                cells = [
                    i * width + index[t]
                    for i, sid in enumerate(members)
                    for t in terms.get(sid, [])
                    if t in index
                ]
                points = np.bincount(cells, minlength=len(members) * width).reshape(-1, width)
                report = silhouette(points.astype(float), assignments, metric="cosine_distance")
            else:
                points = np.array([side_doc["points"][sid] for sid in members], dtype=float)
                report = silhouette(points, assignments, metric="euclidean")
            entries.append(
                {
                    "topic_id": topic["topic_id"],
                    "side": side.value,
                    "clusters": len(clusters),
                    "mean_silhouette": report.mean,
                }
            )
    overall = (
        sum(e["mean_silhouette"] for e in entries) / len(entries) if entries else None
    )
    return {"method": method, "per_clustering": entries, "mean": overall}


def compute_evaluation(
    inputs: PipelineInputs,
    clusters_doc: dict,
    annotations_doc: dict,
    config: PipelineConfig,
) -> dict:
    rouge_table = None
    if inputs.gold:
        rouge_table = compute_rouge_table(
            inputs.corpus,
            inputs.gold,
            inputs.lexicons,
            ratio=config.ratio,
            signature_threshold=config.signature_threshold,
            cache=inputs.selection_cache,
        )
    silhouette_report = compute_silhouette_report(
        clusters_doc, annotations_doc, inputs.gazetteer, inputs.synonyms
    )
    return {"seed": config.seed, "rouge": rouge_table, "silhouette": silhouette_report}


# ---------------------------------------------------------------------------
# artifact I/O
# ---------------------------------------------------------------------------


def write_json(path: str | Path, doc: dict) -> None:
    Path(path).write_bytes(to_json_bytes(doc))


# What the stages read from each artifact on disk: a dict lists required keys
# (others may be present), a one-item list is a list of that shape, a
# frozenset the allowed strings, anything else a type for isinstance.
_STR_OR_NONE = (str, type(None))
_CLUSTER_SIDE = {
    "clusters": [{"cluster_id": str, "label": _STR_OR_NONE, "members": [str]}],
    "points": (dict, type(None)),
}
_ARTIFACT_SHAPES = {
    "annotations": {
        "topics": [{"topic_id": str, "sentences": [
            {"sentence_id": str, "annotations": [{"canonical": str}]}
        ]}]
    },
    "salient": {"topics": [{"topic_id": str, "comments": [
        {"side": frozenset(s.value for s in Side), "sentence_ids": [str]}
    ]}]},
    "clusters": {"method": frozenset(CLUSTER_METHODS), "topics": [
        {"topic_id": str, "sides": {s.value: _CLUSTER_SIDE for s in Side}}
    ]},
    "labels": {"clusters": [{"cluster_id": str, "label": str}]},
    "alignment": {"topics": [{"topic_id": str, "pairs": [{
        "label": str, "agree_cluster_id": str, "disagree_cluster_id": str,
        "similarity": (int, float),
    }]}]},
}


def _check_shape(value, shape, path: Path, where: str = "$") -> None:
    """Raise ValidationError at the first place where ``value`` departs from ``shape``."""

    def fail(problem: str):
        raise ValidationError(f"malformed artifact {path}: {where} {problem}")

    if isinstance(shape, dict):
        if not isinstance(value, dict):
            fail("is not an object")
        for key, inner in shape.items():
            if key not in value:
                fail(f"has no {key!r}")
            _check_shape(value[key], inner, path, f"{where}.{key}")
    elif isinstance(shape, list):
        if not isinstance(value, list):
            fail("is not a list")
        for i, item in enumerate(value):
            _check_shape(item, shape[0], path, f"{where}[{i}]")
    elif isinstance(shape, frozenset):
        if not (isinstance(value, str) and value in shape):
            fail(f"is not one of {sorted(shape)}")
    elif not isinstance(value, shape):
        fail("has the wrong type")


def _check_points(clusters_doc: dict, path: Path) -> None:
    """Raise ValidationError unless every xmeans side with clusters has
    ``points`` and, on every side with ``points``, each member has a point: a
    list of finite numbers, as long as the side's other points."""
    for topic in clusters_doc["topics"]:
        for side in Side:
            side_doc = topic["sides"][side.value]
            if side_doc["points"] is None:
                if clusters_doc["method"] == "xmeans" and side_doc["clusters"]:
                    raise ValidationError(f"malformed artifact {path}: xmeans clusters of "
                                          f"{topic['topic_id']}/{side.value} have no points")
                continue
            length = None
            for cluster in side_doc["clusters"]:
                for sid in cluster["members"]:
                    point = side_doc["points"].get(sid)
                    # finite: NaN fails the comparison, and so does an int too large for a float
                    if not isinstance(point, list) or not all(
                        type(x) in (int, float) and abs(x) <= sys.float_info.max for x in point
                    ):
                        problem = f"has no point of finite numbers: {point!r}"
                    elif length is not None and len(point) != length:
                        problem = f"has a point of length {len(point)}, not {length}"
                    else:
                        length = len(point)
                        continue
                    raise ValidationError(
                        f"malformed artifact {path}: member {sid!r} of "
                        f"{topic['topic_id']}/{side.value} {problem}"
                    )


def check_consistency(docs: dict, paths: dict) -> None:
    """Raise ValidationError, naming the file, where the artifacts in ``docs``
    (stem -> document read from ``paths[stem]``) disagree: a cluster id used
    twice, a member of clusters on two topics or sides, a salient or member id
    that is no annotated sentence of its topic, a cluster with no member, a
    member twice, no label or two labels, a label for no cluster, or an aligned
    pair that names no labeled cluster of its topic and side or a cluster
    another pair names."""

    def fail(artifact: str, problem: str):
        raise ValidationError(f"inconsistent artifact {paths[artifact]}: {problem}")

    clusters = [
        (topic["topic_id"], side.value, c)
        for topic in docs["clusters"]["topics"]
        for side in Side
        for c in topic["sides"][side.value]["clusters"]
    ] if "clusters" in docs else []
    cluster_ids: set[str] = set()
    home: dict[str, str] = {}  # member id -> "topic/side" of its first cluster
    for topic_id, side, c in clusters:
        if c["cluster_id"] in cluster_ids:
            fail("clusters", f"cluster id {c['cluster_id']!r} is used twice")
        cluster_ids.add(c["cluster_id"])
        if not c["members"] or len(set(c["members"])) < len(c["members"]):
            fail("clusters", f"cluster {c['cluster_id']!r} lists no member, or a member twice")
        where = f"{topic_id}/{side}"
        for sid in c["members"]:  # a sentence has one comment, so one topic and side
            if home.setdefault(sid, where) != where:
                fail("clusters", f"sentence id {sid!r} is a member on {home[sid]} and on {where}")
    if "annotations" in docs:
        annotated = {
            t["topic_id"]: {s["sentence_id"] for s in t["sentences"]}
            for t in docs["annotations"]["topics"]
        }
        ids = [("clusters", topic_id, sid) for topic_id, _, c in clusters for sid in c["members"]]
        ids += [("salient", t["topic_id"], sid)
                for t in docs.get("salient", {"topics": []})["topics"]
                for comment in t["comments"] for sid in comment["sentence_ids"]]
        for artifact, topic_id, sid in ids:
            if sid not in annotated.get(topic_id, ()):
                fail(artifact, f"sentence id {sid!r} is not a sentence of topic {topic_id!r} "
                     f"in {paths['annotations']}")
    if "labels" in docs:
        label_by_id = {}
        for entry in docs["labels"]["clusters"]:
            cluster_id = entry["cluster_id"]
            if cluster_id not in cluster_ids:
                fail("labels", f"entry {cluster_id!r} names no cluster")
            if cluster_id in label_by_id:
                fail("labels", f"cluster {cluster_id!r} has two entries")
            label_by_id[cluster_id] = entry["label"]
        for _, _, c in clusters:
            if _cluster_label(c, label_by_id) is None:
                fail("labels", f"cluster {c['cluster_id']!r} has no label")
    if "alignment" in docs:
        pairable = {
            (topic_id, side, c["cluster_id"])
            for topic_id, side, c in clusters
            if _cluster_label(c, label_by_id) != UNLABELED
        }
        paired: set[str] = set()
        for topic in docs["alignment"]["topics"]:
            for pair in topic["pairs"]:
                for side in Side:
                    cluster_id = pair[f"{side.value}_cluster_id"]
                    if (topic["topic_id"], side.value, cluster_id) not in pairable:
                        fail("alignment", f"pair {pair['label']!r} names {cluster_id!r}, "
                             f"no labeled {side.value} cluster of topic {topic['topic_id']!r}")
                    if cluster_id in paired:
                        fail("alignment", f"cluster {cluster_id!r} is in two pairs")
                    paired.add(cluster_id)


def check_artifact(doc, artifact: str, path: str | Path) -> None:
    """Raise ValidationError, naming ``path``, unless ``doc`` has the structure
    the stages read from the ``artifact`` document."""
    _check_shape(doc, _ARTIFACT_SHAPES[artifact], Path(path))
    if artifact == "clusters":
        _check_points(doc, Path(path))


def slugify(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]+", "_", name)


@dataclass(frozen=True)
class Stage:
    """One row of the stage table: ``compute(config, inputs, docs)`` returns the
    stage's document from the loaded inputs (None unless ``uses_inputs``) and
    ``docs``, which maps artifact stems to earlier documents."""

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
              inputs.corpus, inputs.lexicons, config.feature, config.ratio,
              config.signature_threshold, config.seed, inputs.selection_cache)),
    Stage("cluster", "clusters", ("annotations", "salient"), True,
          "cluster the salient sentences of each side",
          lambda config, inputs, docs: compute_clusters(
              docs["annotations"], docs["salient"], inputs.synonyms, inputs.gazetteer, config)),
    Stage("label", "labels", ("clusters", "annotations"), False, "label every cluster",
          lambda config, inputs, docs: compute_labels(
              docs["clusters"], docs["annotations"], config.labeling_method, config.seed)),
    Stage("align", "alignment", ("clusters", "labels"), True,
          "align agree and disagree clusters by label",
          lambda config, inputs, docs: compute_alignment(
              docs["clusters"], docs["labels"], inputs.synonyms, config.alignment_threshold,
              config.seed)),
    # chart reads no label, but needs labels.json so that check_consistency
    # rejects a pair naming an unlabeled cluster
    Stage("chart", "charts", ("clusters", "labels", "alignment"), False,
          "render the Chart Summary per topic",
          lambda config, inputs, docs: compute_charts(docs["clusters"], docs["alignment"])),
    Stage("eval", "evaluation", ("clusters", "annotations"), True, "evaluation metrics",
          lambda config, inputs, docs: compute_evaluation(
              inputs, docs["clusters"], docs["annotations"], config)),
)
STAGE = {stage.artifact: stage for stage in STAGES}


def artifact_files(artifact: str, doc) -> dict[str, bytes]:
    """File name -> bytes for one stage's document.

    Charts become ``chart_<topic>.json`` and ``.html``; every other
    document is ``<artifact>.json``.
    """
    if artifact != "charts":
        return {f"{artifact}.json": to_json_bytes(doc)}
    files: dict[str, bytes] = {}
    for topic_id, chart in doc.items():
        slug = slugify(topic_id)
        files[f"chart_{slug}.json"] = render_chart(chart, "json")
        files[f"chart_{slug}.html"] = render_chart(chart, "html")
    return files


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DebatesumError as exc:
        raise type(exc)(f"[stage {name}] {exc}") from exc


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every stage and write all artifacts plus the manifest.

    Returns the manifest document. On any stage failure the partially
    written artifacts are removed and the error propagates.
    """
    import hashlib
    inputs = _stage("load", load_inputs, config)
    # a full run parses every input file before the first stage, as the load stage
    _stage("load", lambda: (inputs.corpus, inputs.lexicons, inputs.gold))
    docs: dict = {}
    for stage in STAGES:
        docs[stage.artifact] = _stage(stage.command, stage.compute, config, inputs, docs)
    del inputs  # free the corpus and the shared selections before serializing
    artifacts: dict[str, bytes] = {}
    for stage in STAGES:
        artifacts.update(artifact_files(stage.artifact, docs[stage.artifact]))

    manifest = {
        "config": config.echo(),
        "artifacts": {
            name: "sha256:" + hashlib.sha256(data).hexdigest()
            for name, data in sorted(artifacts.items())
        },
    }

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for name, data in artifacts.items():
            target = out / name
            target.write_bytes(data)
            written.append(target)
        write_json(out / "manifest.json", manifest)
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        (out / "manifest.json").unlink(missing_ok=True)
        raise
    return manifest
