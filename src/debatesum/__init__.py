"""Debate summarization into Chart Summaries.

Pipeline: load a two-sided debate corpus, select salient sentences, annotate
them with ontology terms, cluster per side (shared-term soft clustering or
X-means over an ontology vector space), label the clusters (shared term,
tf*idf, or Mutual Information), align the two sides by label similarity, and
render grouped-bar Chart Summaries. evalkit carries the matching metrics:
ROUGE-1/2/SU4, silhouette, Mann-Whitney U, and Krippendorff's alpha.
"""

from .alignment import AlignedPair, LabeledCluster, align_clusters, label_vector
from .annotate import (
    Gazetteer,
    SynonymTable,
    TermAnnotation,
    annotate_sentence,
    canonical_label,
    load_gazetteer,
    load_synonyms,
    term_text,
)
from .chart import Bar, ChartSummary, build_chart, parse_chart_json, render_chart
from .corpus import (
    Comment,
    DebateTopic,
    GoldAnnotation,
    GoldCountWarning,
    Sentence,
    Side,
    dump_corpus,
    load_corpus,
    load_gold,
    salient_count,
    tokenize,
)
from .errors import (
    ComputationError,
    ConfigError,
    DebatesumError,
    ParseError,
    ValidationError,
)
from .evalkit import (
    MannWhitneyResult,
    RougeScore,
    RougeVariant,
    SilhouetteReport,
    krippendorff_alpha,
    mann_whitney_u,
    rouge,
    silhouette,
)
from .labeling import (
    ContingencyCounts,
    LabelCandidate,
    LabelMethod,
    UNLABELED,
    mi_label,
    mutual_information,
    shared_term_label,
    tfidf_labels,
)
from .pipeline import PipelineConfig, load_config, run_pipeline
from .saliency import (
    Feature,
    FeatureVector,
    Lexicons,
    TopicSignature,
    default_lexicons,
    extract_topic_signatures,
    load_embeddings,
    score_comment,
    select_salient,
)
from .term_clustering import TermCluster, cluster_by_shared_term, merge_synonymous_clusters
from .vector_clustering import (
    ClusteringResult,
    PcaModel,
    SentenceVector,
    SimilarityMatrix,
    bic_score,
    build_similarity_matrix,
    build_term_vectors,
    cosine,
    kmeans,
    pca_fit_transform,
    xmeans,
)

__version__ = "0.1.0"
