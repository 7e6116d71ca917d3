"""Checks of the program's artifacts against computations made apart from it.

Every check reads the artifacts the CLI wrote and compares them with the
planted ground truth of the synthetic corpus, recomputed here without
importing the program: the benchmark's own union-find over the shipped
synonym table, its own MI (entropy identity), tf*idf, label-bag cosine,
silhouette (``scipy.spatial.distance``) and ROUGE (sorted n-gram multisets).
A check raises ``CheckFailed``; ``check_all`` returns the failures.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.spatial import distance

import synth

UNLABELED = "(unlabeled)"
TOL = 1e-9


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def text(term) -> str:
    return " ".join(term)


class Truth:
    """Planted ground truth of one corpus, canonicalised independently."""

    def __init__(self, corpus: synth.Corpus):
        parent: dict = {}

        def find(t):
            parent.setdefault(t, t)
            while parent[t] != t:
                parent[t] = parent[parent[t]]
                t = parent[t]
            return t

        for row in synth.synonym_rows():
            for term in row[1:]:
                parent[find(term)] = find(row[0])
        members: dict = {}
        for term in list(parent):
            members.setdefault(find(term), set()).add(term)
        self._class = {t: frozenset(members[find(t)]) for t in parent}

        self.corpus = corpus
        self.sentences = {}        # id -> PlantedSentence
        self.terms = {}            # id -> Counter of canonical term texts
        self.comment_salient = {}  # comment id -> salient ids (SP: leading ceil(0.2 n))
        self.salient = {}          # (topic id, side) -> salient ids in corpus order
        for topic in corpus.topics:
            for side in ("agree", "disagree"):
                self.salient[(topic.id, side)] = []
            for comment in topic.comments:
                ids = [s.id for s in comment.sentences[: synth.salient_count(len(comment.sentences))]]
                self.comment_salient[comment.id] = ids
                self.salient[(topic.id, comment.side)].extend(ids)
                for s in comment.sentences:
                    self.sentences[s.id] = s
                    self.terms[s.id] = Counter(self.canonical(t) for t in s.terms)

    def direction(self, sid: str) -> tuple:
        """The sentence's canonical term counts divided by their gcd."""
        counts = self.terms[sid]
        g = math.gcd(*counts.values()) if counts else 1
        return tuple(sorted((t, n // g) for t, n in counts.items()))

    def synonym_class(self, term) -> frozenset:
        return self._class.get(tuple(term), frozenset([tuple(term)]))

    def canonical(self, term) -> str:
        return min(text(t) for t in self.synonym_class(term))

    def label_bag(self, label: str) -> set:
        return {tok for t in self.synonym_class(tuple(label.split())) for tok in t}


def read(out: Path, name: str) -> dict:
    path = out / name
    require(path.is_file(), f"missing artifact {name}")
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- annotate


def check_annotations(doc: dict, truth: Truth) -> None:
    seen = set()
    for topic in doc["topics"]:
        for entry in topic["sentences"]:
            sid = entry["sentence_id"]
            require(sid in truth.sentences and sid not in seen, f"annotations: unexpected {sid}")
            seen.add(sid)
            got = Counter(truth.canonical(tuple(a["term"].split())) for a in entry["annotations"])
            require(got == truth.terms[sid], f"annotations: {sid} has {dict(got)}")
            canon = Counter(a["canonical"] for a in entry["annotations"])
            require(canon == truth.terms[sid], f"annotations: {sid} canonical {dict(canon)}")
    require(seen == set(truth.sentences), "annotations: sentences missing")


# ---------------------------------------------------------------- select


def check_selection(doc: dict, truth: Truth) -> None:
    seen = set()
    for topic in doc["topics"]:
        for comment in topic["comments"]:
            cid = comment["comment_id"]
            require(cid in truth.comment_salient, f"selection: unknown comment {cid}")
            require(comment["sentence_ids"] == truth.comment_salient[cid],
                    f"selection: {cid} selected {comment['sentence_ids']}")
            seen.add(cid)
    require(seen == set(truth.comment_salient), "selection: comments missing")


# ---------------------------------------------------------------- cluster


def _sides(doc: dict, truth: Truth):
    topics = {t["topic_id"]: t for t in doc["topics"]}
    require(set(topics) == {t.id for t in truth.corpus.topics}, "clusters: topic set differs")
    for topic in truth.corpus.topics:
        for side in ("agree", "disagree"):
            yield topic.id, side, topics[topic.id]["sides"][side], truth.salient[(topic.id, side)]


def check_term_clusters(doc: dict, truth: Truth) -> None:
    for tid, side, side_doc, salient in _sides(doc, truth):
        expected: dict = {}
        for sid in salient:
            for term in sorted(truth.terms[sid]):
                expected.setdefault(term, []).append(sid)
        got = {c["label"]: c["members"] for c in side_doc["clusters"]}
        require(len(got) == len(side_doc["clusters"]), f"term clusters: {tid}/{side} repeats a label")
        require(got == expected, f"term clusters: {tid}/{side} members differ")
        require(side_doc["unclustered"] == [s for s in salient if not truth.terms[s]],
                f"term clusters: {tid}/{side} unclustered differ")


def check_xmeans_clusters(doc: dict, truth: Truth, k_min: int, k_max: int) -> None:
    for tid, side, side_doc, salient in _sides(doc, truth):
        clusters = side_doc["clusters"]
        members = [sid for c in clusters for sid in c["members"]]
        everything = members + side_doc["unclustered"]
        require(sorted(everything) == sorted(salient) and len(set(everything)) == len(everything),
                f"xmeans clusters: {tid}/{side} do not partition the salient sentences")
        require(set(side_doc["unclustered"]) == {s for s in salient if not truth.terms[s]},
                f"xmeans clusters: {tid}/{side} unclustered differ")
        require(all(c["members"] for c in clusters), f"xmeans clusters: {tid}/{side} empty cluster")
        n, k = len(members), side_doc["k"]
        require(k == len(clusters), f"xmeans clusters: {tid}/{side} k={k} but {len(clusters)} clusters")
        # proportional term vectors have one similarity profile: k may be 1
        one_vector = len({truth.direction(s) for s in members}) <= 1
        if n:
            low = 1 if one_vector else min(k_min, n)
            require(low <= k <= min(k_max, n), f"xmeans clusters: {tid}/{side} k={k} out of bounds")
        points = side_doc["points"] or {}
        require(set(points) == set(members), f"xmeans clusters: {tid}/{side} points differ from members")
        require(all(math.isfinite(x) for p in points.values() for x in p),
                f"xmeans clusters: {tid}/{side} points hold NaN or inf")


def split_duplicate_groups(doc: dict, truth: Truth) -> int:
    """Groups of salient sentences with one topic, side and term vector that
    land in more than one cluster."""
    split = 0
    for tid, side, side_doc, _ in _sides(doc, truth):
        where: dict = {}
        for j, c in enumerate(side_doc["clusters"]):
            for sid in c["members"]:
                where.setdefault(tuple(sorted(truth.terms[sid].items())), set()).add(j)
        split += sum(1 for clusters in where.values() if len(clusters) > 1)
    return split


# ---------------------------------------------------------------- label


def _entropy(counts) -> float:
    total = sum(counts)
    return -sum(c / total * math.log2(c / total) for c in counts if c)


def mutual_information(term: str, target: set, universe: list, truth: Truth) -> float:
    """MI in bits of term presence vs membership, by H(X) + H(Y) - H(X,Y)."""
    joint = Counter((term in truth.terms[sid], sid in target) for sid in universe)
    present = Counter({x: joint[(x, True)] + joint[(x, False)] for x in (True, False)})
    member = Counter({y: joint[(True, y)] + joint[(False, y)] for y in (True, False)})
    return _entropy(present.values()) + _entropy(member.values()) - _entropy(joint.values())


def _labels_by_id(labels_doc: dict) -> dict:
    entries = {e["cluster_id"]: e for e in labels_doc["clusters"]}
    require(len(entries) == len(labels_doc["clusters"]), "labels: repeated cluster id")
    return entries


def check_mi_labels(labels_doc: dict, clusters_doc: dict, truth: Truth) -> None:
    entries = _labels_by_id(labels_doc)
    for tid, side, side_doc, _ in _sides(clusters_doc, truth):
        clusters = side_doc["clusters"]
        universe = list(dict.fromkeys(sid for c in clusters for sid in c["members"]))
        for c in clusters:
            entry = entries.get(c["cluster_id"])
            require(entry is not None, f"labels: {c['cluster_id']} has no label")
            target = set(c["members"])
            candidates = {t for sid in target for t in truth.terms[sid]}
            if not candidates:
                require(entry["label"] == UNLABELED and entry["score"] == 0.0,
                        f"labels: {c['cluster_id']} should be unlabeled")
                continue
            scores = {t: mutual_information(t, target, universe, truth) for t in candidates}
            label = entry["label"]
            require(label in scores, f"labels: {c['cluster_id']} label {label!r} is no candidate")
            require(abs(entry["score"] - scores[label]) <= TOL,
                    f"labels: {c['cluster_id']} MI {entry['score']} != {scores[label]}")
            require(scores[label] >= max(scores.values()) - TOL,
                    f"labels: {c['cluster_id']} label {label!r} is not the MI maximum")


def check_tfidf_labels(labels_doc: dict, clusters_doc: dict, truth: Truth) -> None:
    entries = _labels_by_id(labels_doc)
    for tid, side, side_doc, _ in _sides(clusters_doc, truth):
        clusters = side_doc["clusters"]
        counts = [sum((truth.terms[sid] for sid in c["members"]), Counter()) for c in clusters]
        frequency = Counter(t for tf in counts for t in tf)
        for c, tf in zip(clusters, counts):
            entry = entries.get(c["cluster_id"])
            require(entry is not None, f"labels: {c['cluster_id']} has no label")
            if not tf:
                require(entry["label"] == UNLABELED, f"labels: {c['cluster_id']} should be unlabeled")
                continue
            scores = {t: n * math.log(len(clusters) / frequency[t]) for t, n in tf.items()}
            label = entry["label"]
            require(label in scores, f"labels: {c['cluster_id']} label {label!r} is no candidate")
            require(abs(entry["score"] - scores[label]) <= TOL
                    and scores[label] >= max(scores.values()) - TOL,
                    f"labels: {c['cluster_id']} tf*idf label {label!r} is not the maximum")


# ---------------------------------------------------------------- align, chart


def _display_labels(clusters_doc: dict, labels_doc: dict) -> dict:
    """cluster id -> (topic id, side, label used for alignment, member count)."""
    entries = _labels_by_id(labels_doc)
    out = {}
    for topic in clusters_doc["topics"]:
        for side, side_doc in topic["sides"].items():
            for c in side_doc["clusters"]:
                label = c["label"] if c["label"] is not None else entries[c["cluster_id"]]["label"]
                out[c["cluster_id"]] = (topic["topic_id"], side, label, len(c["members"]))
    return out


def bag_cosine(a: set, b: set) -> float:
    return len(a & b) / math.sqrt(len(a) * len(b)) if a and b else 0.0


def check_alignment(align_doc: dict, clusters_doc: dict, labels_doc: dict, truth: Truth,
                    threshold: float) -> None:
    labels = _display_labels(clusters_doc, labels_doc)
    for topic in align_doc["topics"]:
        tid = topic["topic_id"]
        own = {cid for cid, (t, _, _, _) in labels.items() if t == tid}
        used: list = []
        for pair in topic["pairs"]:
            a, d = pair["agree_cluster_id"], pair["disagree_cluster_id"]
            require(labels.get(a, ())[:2] == (tid, "agree") and labels.get(d, ())[:2] == (tid, "disagree"),
                    f"alignment: {tid} pairs clusters of the wrong side or topic")
            sim = bag_cosine(truth.label_bag(labels[a][2]), truth.label_bag(labels[d][2]))
            require(abs(sim - pair["similarity"]) <= TOL and sim >= threshold - TOL,
                    f"alignment: {tid} pair {a}/{d} similarity {pair['similarity']} != {sim}")
            require(pair["label"] == labels[a][2], f"alignment: {tid} pair label differs")
            used += [a, d]
        require(len(used) == len(set(used)), f"alignment: {tid} is not one-to-one")
        dropped = [c["cluster_id"] for c in topic["dropped"]]
        require(sorted(used + dropped) == sorted(own), f"alignment: {tid} loses or repeats clusters")
        open_sides = {"agree": [], "disagree": []}
        for cid in dropped:
            if labels[cid][2] != UNLABELED:
                open_sides[labels[cid][1]].append(truth.label_bag(labels[cid][2]))
        require(all(bag_cosine(a, d) < threshold + TOL
                    for a in open_sides["agree"] for d in open_sides["disagree"]),
                f"alignment: {tid} left an alignable pair unmatched")


def check_charts(out: Path, align_doc: dict, clusters_doc: dict, labels_doc: dict) -> None:
    labels = _display_labels(clusters_doc, labels_doc)
    for topic in align_doc["topics"]:
        chart = read(out, f"chart_{topic['topic_id']}.json")
        expected = sorted(
            (labels[p["agree_cluster_id"]][3], labels[p["disagree_cluster_id"]][3], p["similarity"])
            for p in topic["pairs"]
        )
        got = sorted((b["agree_count"], b["disagree_count"], b["similarity"]) for b in chart["bars"])
        require(got == expected, f"chart: {topic['topic_id']} bars differ from cluster sizes")


# ---------------------------------------------------------------- eval


def _silhouette(points: np.ndarray, assignments: list, metric: str) -> float:
    d = distance.cdist(points, points, metric=metric)
    assignments = np.asarray(assignments)
    values = []
    for i in range(len(points)):
        own = assignments == assignments[i]
        own[i] = False
        if not own.any():
            values.append(0.0)
            continue
        a = d[i, own].mean()
        b = min(d[i, assignments == j].mean() for j in set(assignments.tolist()) if j != assignments[i])
        values.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return float(np.mean(values))


def check_silhouette(report: dict, clusters_doc: dict, truth: Truth) -> None:
    method = clusters_doc["method"]
    vocabulary = sorted({t for c in truth.terms.values() for t in c})
    column = {t: i for i, t in enumerate(vocabulary)}
    got = {(e["topic_id"], e["side"]): e["mean_silhouette"] for e in report["per_clustering"]}
    expected = {}
    for tid, side, side_doc, _ in _sides(clusters_doc, truth):
        clusters = side_doc["clusters"]
        if len(clusters) < 2:
            continue
        rows, assignments = [], []
        for j, c in enumerate(clusters):
            for sid in c["members"]:
                if method == "term":
                    row = np.zeros(len(vocabulary))
                    for t, n in truth.terms[sid].items():
                        row[column[t]] = n
                else:
                    row = np.asarray(side_doc["points"][sid], dtype=float)
                rows.append(row)
                assignments.append(j)
        expected[(tid, side)] = _silhouette(
            np.stack(rows), assignments, "cosine" if method == "term" else "euclidean"
        )
    require(set(got) == set(expected), "silhouette: clusterings differ")
    for key, value in expected.items():
        require(abs(got[key] - value) <= TOL, f"silhouette: {key} mean {got[key]} != {value}")
    if expected:
        require(abs(report["mean"] - sum(expected.values()) / len(expected)) <= TOL,
                "silhouette: overall mean differs")


def _units(tokens: list, variant: str) -> list:
    if variant == "R1":
        return [(t,) for t in tokens]
    if variant == "R2":
        return [(tokens[i], tokens[i + 1]) for i in range(len(tokens) - 1)]
    pairs = [(tokens[i], tokens[j]) for i in range(len(tokens))
             for j in range(i + 1, min(i + 6, len(tokens)))]
    return pairs + [(t,) for t in tokens]


def _multiset_overlap(a: list, b: list) -> int:
    a, b = sorted(a), sorted(b)
    i = j = match = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            match, i, j = match + 1, i + 1, j + 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return match


def check_rouge(table: dict, truth: Truth) -> None:
    """The SP rows against sorted-multiset n-gram matching."""
    refs: dict = {}
    for annotator, cid, ids in sorted(truth.corpus.gold):
        refs.setdefault(cid, []).append(set(ids))
    sums = {v: [0.0, 0.0, 0.0] for v in ("R1", "R2", "RSU4")}
    comments = 0
    for topic in truth.corpus.topics:
        for comment in topic.comments:
            if comment.id not in refs:
                continue
            comments += 1
            chosen = set(truth.comment_salient[comment.id])
            system = [t for s in comment.sentences if s.id in chosen for t in s.tokens]
            references = [[t for s in comment.sentences if s.id in ids for t in s.tokens]
                          for ids in refs[comment.id]]
            for variant, acc in sums.items():
                sys_units = _units(system, variant)
                scores = []
                for ref in references:
                    ref_units = _units(ref, variant)
                    match = _multiset_overlap(sys_units, ref_units)
                    r = match / len(ref_units) if ref_units else 0.0
                    p = match / len(sys_units) if sys_units else 0.0
                    scores.append((r, p, 2 * p * r / (p + r) if p + r else 0.0))
                for i in range(3):
                    acc[i] += sum(s[i] for s in scores) / len(scores)
    for variant, acc in sums.items():
        row = table["SP"][variant]
        for i, key in enumerate(("recall", "precision", "f1")):
            require(abs(row[key] - acc[i] / comments) <= TOL,
                    f"rouge: SP {variant} {key} {row[key]} != {acc[i] / comments}")


# ---------------------------------------------------------------- files


def artifact_hashes(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def check_manifest(out: Path) -> None:
    manifest = read(out, "manifest.json")
    hashes = artifact_hashes(out)
    hashes.pop("manifest.json")
    listed = {name: digest.removeprefix("sha256:") for name, digest in manifest["artifacts"].items()}
    require(listed == hashes, "manifest: hashes differ from the written files")


def check_all(out: Path, truth: Truth, workload) -> list[str]:
    """Every check that applies to the workload's artifacts; the failures."""
    config = workload.config(out)
    failures = []

    def run(check, *args) -> None:
        try:
            check(*args)
        except CheckFailed as exc:
            failures.append(str(exc))
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            failures.append(f"{check.__name__}: malformed artifact ({type(exc).__name__}: {exc})")

    try:
        annotations = read(out, "annotations.json")
        salient = read(out, "salient.json")
        clusters = read(out, "clusters.json")
        labels = read(out, "labels.json")
        alignment = read(out, "alignment.json")
        staged = len(workload.commands) > 1
        evaluation = read(out, "evaluation_silhouette.json" if staged else "evaluation.json")
    except (CheckFailed, json.JSONDecodeError) as exc:
        return [str(exc)]
    run(check_annotations, annotations, truth)
    run(check_selection, salient, truth)
    if workload.clustering == "term":
        run(check_term_clusters, clusters, truth)
    else:
        run(check_xmeans_clusters, clusters, truth, config["k_min"], config["k_max"])
    if workload.labeling == "mi":
        run(check_mi_labels, labels, clusters, truth)
    else:
        run(check_tfidf_labels, labels, clusters, truth)
    run(check_alignment, alignment, clusters, labels, truth, config["alignment_threshold"])
    run(check_charts, out, alignment, clusters, labels)
    run(check_silhouette, evaluation["silhouette"], clusters, truth)
    if truth.corpus.gold:
        run(check_rouge, evaluation["rouge"], truth)
    if not staged:
        run(check_manifest, out)
    return failures
