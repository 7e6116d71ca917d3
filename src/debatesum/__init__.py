"""Debate summarization into Chart Summaries.

Pipeline: load a two-sided debate corpus, select salient sentences, annotate
them with ontology terms, cluster per side (shared-term soft clustering or
X-means over an ontology vector space), label the clusters (shared term,
tf*idf, or Mutual Information), align the two sides by label similarity, and
render grouped-bar Chart Summaries. evalkit carries the matching metrics:
ROUGE-1/2/SU4, silhouette, Mann-Whitney U, and Krippendorff's alpha.

Every name is imported from the module that defines it, e.g.
``debatesum.vector_clustering.xmeans`` or ``debatesum.evalkit.rouge``.
"""

__version__ = "0.1.0"
