"""Traced runs: spans around the program's module boundaries, and the
per-layer metrics computed from them.

Run as a script, this file runs one ``debatesum`` CLI command in-process
with wrappers installed at the call sites the pipeline and the CLI use
(``debatesum.pipeline.<fn>``, ``debatesum.cli.<fn>``,
``debatesum.labeling.contingency_counts``). Nothing inside ``src/`` changes.
Each wrapper records a span (name, start, end, parent) and a few counts taken
from the call's arguments and result. Spans stay in memory and are written
to a JSON file when the command ends:

    python3 bench/tracing.py SPANS.json pipeline --config CONFIG.json

The benchmark process then turns the span files of one operation into the
per-layer metrics (``layer_metrics``).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import warnings
from collections import Counter, defaultdict

# module -> functions wrapped where that module's code calls them
WRAPPED = {
    "debatesum.pipeline": (
        "run_pipeline", "load_inputs", "compute_annotations", "compute_salient",
        "compute_clusters", "compute_labels", "compute_alignment", "compute_charts",
        "compute_evaluation", "compute_rouge_table", "compute_silhouette_report",
        "to_json_bytes", "write_json", "render_chart", "load_corpus", "load_gold",
        "annotate_sentence", "canonical_label", "topic_signatures_for", "score_comment",
        "cluster_by_shared_term", "merge_synonymous_clusters", "build_similarity_matrix",
        "pca_fit_transform", "xmeans", "mi_label", "tfidf_labels", "align_clusters",
        "build_chart", "rouge", "silhouette",
    ),
    "debatesum.cli": (
        "run_pipeline", "load_inputs", "read_json", "write_json", "to_json_bytes",
        "render_chart", "compute_annotations", "compute_salient", "compute_clusters",
        "compute_labels", "compute_alignment", "compute_charts", "compute_rouge_table",
        "compute_silhouette_report",
    ),
    "debatesum.labeling": ("contingency_counts",),
}

# outermost span of these functions -> pipeline stage
STAGE_OF = {
    "load_inputs": "load", "read_json": "load",
    "compute_annotations": "annotate", "compute_salient": "select",
    "compute_clusters": "cluster", "compute_labels": "label",
    "compute_alignment": "align", "compute_charts": "chart",
    "compute_evaluation": "eval", "compute_rouge_table": "eval",
    "compute_silhouette_report": "eval",
    "to_json_bytes": "serialize", "write_json": "serialize", "render_chart": "serialize",
}
STAGES = ("load", "annotate", "select", "cluster", "label", "align", "chart", "eval", "serialize")
VECTOR_SPANS = {"build_similarity_matrix", "pca_fit_transform", "xmeans"}
UNLABELED = ("(unlabeled)",)

# per-layer metric -> unit, in report order
LAYER_UNITS = {
    **{f"stage.{s}_s": "s" for s in STAGES},
    "pipeline.self_s": "s",
    "pipeline.artifact_bytes": "bytes",
    "corpus.load_corpus_s": "s",
    "corpus.load_gold_s": "s",
    "corpus.sentences": "count",
    "annotate.annotate_sentence_s": "s",
    "annotate.annotations": "count",
    "annotate.canonical_label_calls": "count",
    "saliency.topic_signatures_s": "s",
    "saliency.topic_signature_calls": "count",
    "saliency.score_comment_s": "s",
    "saliency.score_comment_calls": "count",
    "saliency.score_comment_reuse": "ratio",
    "term_clustering.cluster_s": "s",
    "term_clustering.clusters": "count",
    "vector_clustering.similarity_s": "s",
    "vector_clustering.pca_s": "s",
    "vector_clustering.xmeans_s": "s",
    "vector_clustering.xmeans_calls": "count",
    "vector_clustering.points": "count",
    "vector_clustering.distinct_points": "count",
    "vector_clustering.lloyd_iterations": "count",
    "vector_clustering.final_k": "count",
    "vector_clustering.k_max_hits": "count",
    "vector_clustering.split_duplicate_groups": "count",
    "vector_clustering.runtime_warnings": "count",
    "labeling.mi_label_s": "s",
    "labeling.mi_label_calls": "count",
    "labeling.contingency_tables": "count",
    "labeling.tfidf_s": "s",
    "labeling.unlabeled": "count",
    "alignment.align_s": "s",
    "alignment.pairs": "count",
    "alignment.dropped": "count",
    "chart.build_s": "s",
    "chart.render_s": "s",
    "chart.bytes": "bytes",
    "evalkit.rouge_s": "s",
    "evalkit.rouge_calls": "count",
    "evalkit.silhouette_s": "s",
    "evalkit.silhouette_points": "count",
    "cli.load_inputs_calls": "count",
    "cli.read_json_s": "s",
    "cli.read_json_bytes": "bytes",
    "process.cpu_s": "s",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
    "trace.import_s": "s",
    "trace.spans": "count",
    "trace.warnings": "count",
}


class Tracer:
    """In-memory span recorder with counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list = []   # [name, start, end, parent index]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.comments: set = set()

    def wrap(self, module, name: str) -> None:
        fn = getattr(module, name)
        site = f"{module.__name__.rsplit('.', 1)[-1]}:{name}"
        spans, stack, count = self.spans, self.stack, self._count

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            count(name, site, args, kwargs, result)
            return result

        setattr(module, name, traced)

    def _count(self, name: str, site: str, args, kwargs, result) -> None:
        c = self.counts
        c[name + ".calls"] += 1
        c[site] += 1
        if name == "annotate_sentence":
            c["annotations"] += len(result)
        elif name == "score_comment":
            self.comments.add(args[0].id)
        elif name == "merge_synonymous_clusters":
            c["term_clusters"] += len(result)
        elif name == "xmeans":
            import numpy as np

            points = np.asarray(args[0], dtype=float)
            c["points"] += len(points)
            # copies of one term vector differ in the last bits after PCA
            c["distinct_points"] += len(np.unique(np.round(points, 9), axis=0))
            c["lloyd_iterations"] += int(result.iterations)
            c["final_k"] += int(result.k)
            c["k_max_hits"] += int(result.k == kwargs.get("k_max"))
        elif name in ("mi_label", "tfidf_labels"):
            labels = [result] if name == "mi_label" else result
            c["unlabeled"] += sum(1 for label in labels if label.term == UNLABELED)
        elif name == "align_clusters":
            c["pairs"] += len(result[0])
            c["dropped"] += len(result[1])
        elif name == "render_chart":
            c["chart_bytes"] += len(result)
        elif name == "silhouette":
            c["silhouette_points"] += len(args[0])
        elif name == "load_corpus":
            sentences = sum(len(cm.sentences) for t in result for cm in t.comments)
            c["sentences"] = max(c["sentences"], sentences)
        elif name == "read_json":
            from pathlib import Path

            c["read_json_bytes"] += Path(args[0]).stat().st_size

    def in_vector_span(self) -> bool:
        return any(self.spans[i][0] in VECTOR_SPANS for i in self.stack)


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    spans_path, cli_args = argv[0], argv[1:]
    import debatesum.cli as cli

    imported = time.perf_counter()
    tracer = Tracer()
    for module_name, names in WRAPPED.items():
        module = importlib.import_module(module_name)
        for name in names:
            tracer.wrap(module, name)

    caught: Counter = Counter()

    def record(message, category, filename, lineno, file=None, line=None):
        caught["warnings"] += 1
        if issubclass(category, RuntimeWarning) and tracer.in_vector_span():
            caught["runtime_warnings"] += 1

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = record
        code = cli.main(cli_args)
    doc = {
        "import_s": imported - started,
        "spans": tracer.spans,
        "counts": dict(tracer.counts + caught),
        "comments": len(tracer.comments),
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


def _outermost_stage_spans(spans: list):
    """Spans mapped to a stage whose ancestors include no stage span."""
    for name, start, end, parent in spans:
        if name not in STAGE_OF:
            continue
        p = parent
        while p != -1 and spans[p][0] not in STAGE_OF:
            p = spans[p][3]
        if p == -1:
            yield STAGE_OF[name], end - start


def layer_metrics(docs: list, run_s: float, cpu_s: float, artifact_bytes: int,
                  split_groups: int) -> dict:
    """Per-layer metrics of one traced operation (one span file per process)."""
    durations: dict = defaultdict(float)
    stages: dict = {s: 0.0 for s in STAGES}
    counts: Counter = Counter()
    pipeline_self = import_s = 0.0
    n_spans = comments = sentences = 0
    for doc in docs:
        spans = doc["spans"]
        n_spans += len(spans)
        import_s += doc["import_s"]
        sentences = max(sentences, doc["counts"].pop("sentences", 0))
        counts.update(doc["counts"])
        comments += doc["comments"]
        children: dict = defaultdict(float)
        for name, start, end, parent in spans:
            durations[name] += end - start
            if parent != -1:
                children[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            if name == "run_pipeline":
                pipeline_self += (end - start) - children[i]
        for stage, seconds in _outermost_stage_spans(spans):
            stages[stage] += seconds

    def calls(name: str) -> int:
        return counts.get(name + ".calls", 0)

    score_calls = calls("score_comment")
    metrics = {f"stage.{s}_s": stages[s] for s in STAGES}
    metrics.update({
        "pipeline.self_s": pipeline_self,
        "pipeline.artifact_bytes": artifact_bytes,
        "corpus.load_corpus_s": durations["load_corpus"],
        "corpus.load_gold_s": durations["load_gold"],
        "corpus.sentences": sentences,
        "annotate.annotate_sentence_s": durations["annotate_sentence"],
        "annotate.annotations": counts["annotations"],
        "annotate.canonical_label_calls": calls("canonical_label"),
        "saliency.topic_signatures_s": durations["topic_signatures_for"],
        "saliency.topic_signature_calls": calls("topic_signatures_for"),
        "saliency.score_comment_s": durations["score_comment"],
        "saliency.score_comment_calls": score_calls,
        "saliency.score_comment_reuse": comments / score_calls if score_calls else 0.0,
        "term_clustering.cluster_s": durations["cluster_by_shared_term"]
        + durations["merge_synonymous_clusters"],
        "term_clustering.clusters": counts["term_clusters"],
        "vector_clustering.similarity_s": durations["build_similarity_matrix"],
        "vector_clustering.pca_s": durations["pca_fit_transform"],
        "vector_clustering.xmeans_s": durations["xmeans"],
        "vector_clustering.xmeans_calls": calls("xmeans"),
        "vector_clustering.points": counts["points"],
        "vector_clustering.distinct_points": counts["distinct_points"],
        "vector_clustering.lloyd_iterations": counts["lloyd_iterations"],
        "vector_clustering.final_k": counts["final_k"],
        "vector_clustering.k_max_hits": counts["k_max_hits"],
        "vector_clustering.split_duplicate_groups": split_groups,
        "vector_clustering.runtime_warnings": counts["runtime_warnings"],
        "labeling.mi_label_s": durations["mi_label"],
        "labeling.mi_label_calls": calls("mi_label"),
        "labeling.contingency_tables": calls("contingency_counts"),
        "labeling.tfidf_s": durations["tfidf_labels"],
        "labeling.unlabeled": counts["unlabeled"],
        "alignment.align_s": durations["align_clusters"],
        "alignment.pairs": counts["pairs"],
        "alignment.dropped": counts["dropped"],
        "chart.build_s": durations["build_chart"],
        "chart.render_s": durations["render_chart"],
        "chart.bytes": counts["chart_bytes"],
        "evalkit.rouge_s": durations["rouge"],
        "evalkit.rouge_calls": calls("rouge"),
        "evalkit.silhouette_s": durations["silhouette"],
        "evalkit.silhouette_points": counts["silhouette_points"],
        "cli.load_inputs_calls": counts["cli:load_inputs"],
        "cli.read_json_s": durations["read_json"],
        "cli.read_json_bytes": counts["read_json_bytes"],
        "process.cpu_s": cpu_s,
        "trace.run_s": run_s,
        "trace.remainder_s": run_s - sum(stages.values()),
        "trace.import_s": import_s,
        "trace.spans": n_spans,
        "trace.warnings": counts["warnings"],
    })
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
