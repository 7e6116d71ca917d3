"""Checks on what the CLI reads back: the stage artifacts and the ratings
file of ``eval stats``. A failed check is a ValidationError naming the file
and the place in it. A number is an exact ``int`` or ``float``, never ``true``
or ``false``, and finite."""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

from .annotate import UNLABELED
from .corpus import SIDES
from .errors import ValidationError
from .pipeline import CLUSTER_METHODS, _cluster_label

# What the program reads from each file: a dict lists required keys (others
# may be present), a one-item list is a list of that shape, a frozenset the
# allowed strings, and a type or a tuple of types the exact types of a leaf.
_NUMBER = (int, float)
_CLUSTER_SIDE = {
    "clusters": [{"cluster_id": str, "label": (str, type(None)), "members": [str]}],
    "points": (dict, type(None)),
}
_ARTIFACT_SHAPES = {
    "annotations": {
        "topics": [{"topic_id": str, "sentences": [
            {"sentence_id": str, "annotations": [{"canonical": str}]}
        ]}]
    },
    "salient": {"topics": [{"topic_id": str, "comments": [
        {"side": frozenset(SIDES), "sentence_ids": [str]}
    ]}]},
    "clusters": {"method": frozenset(CLUSTER_METHODS), "topics": [
        {"topic_id": str, "sides": dict.fromkeys(SIDES, _CLUSTER_SIDE)}
    ]},
    "labels": {"clusters": [{"cluster_id": str, "label": str}]},
    "alignment": {"threshold": _NUMBER, "topics": [{"topic_id": str, "pairs": [{
        "label": str, "agree_cluster_id": str, "disagree_cluster_id": str,
        "similarity": _NUMBER,
    }]}]},
}

# The keys of a ratings file that ``eval stats`` reads, each checked where present.
RATINGS_SHAPE = {
    "samples": {"a": [_NUMBER], "b": [_NUMBER]},
    "ratings": [[(*_NUMBER, type(None))]],
    "metric": frozenset(("nominal", "interval", "ordinal")),
}


def _shape_error(source: str, where: tuple | None, problem: str) -> ValidationError:
    steps = []
    while where is not None:
        where, key = where
        steps.append(f"[{key}]" if isinstance(key, int) else f".{key}")
    return ValidationError(f"malformed {source}: ${''.join(reversed(steps))} {problem}")


def _check_shape(value, shape, source: str, where: tuple | None = None) -> None:
    """Raise ValidationError at the first place where ``value`` departs from
    ``shape``, naming the file as ``source`` says (``"artifact <path>"``).

    ``where`` leads to ``value`` as a chain of (parent chain, key or index)
    pairs from the document root (None); it is spelled out only on failure.
    """
    kind = type(shape)
    if kind is type or kind is tuple:  # a leaf, the commonest node: its exact types
        if type(value) is not shape and not (kind is tuple and type(value) in shape):
            raise _shape_error(source, where, "has the wrong type")
        # a number is finite: NaN fails the comparison, and so does an int too large for a float
        if shape is not str and type(value) in _NUMBER and not abs(value) <= sys.float_info.max:
            raise _shape_error(source, where, "is not a finite number")
    elif kind is dict:
        if not isinstance(value, dict):
            raise _shape_error(source, where, "is not an object")
        for key, inner in shape.items():
            if key not in value:
                raise _shape_error(source, where, f"has no {key!r}")
            _check_shape(value[key], inner, source, (where, key))
    elif kind is list:
        if not isinstance(value, list):
            raise _shape_error(source, where, "is not a list")
        for i, item in enumerate(value):
            _check_shape(item, shape[0], source, (where, i))
    elif not (isinstance(value, str) and value in shape):  # a frozenset of strings
        raise _shape_error(source, where, f"is not one of {sorted(shape)}")


def _check_points(clusters_doc: dict, source: str) -> None:
    """Raise ValidationError unless every xmeans side with clusters has
    ``points`` and, on every side with ``points``, each member has a point: a
    list of numbers, as long as the side's other points."""
    for t, topic in enumerate(clusters_doc["topics"]):
        for side in SIDES:
            side_doc, name = topic["sides"][side], f"{topic['topic_id']}/{side}"
            points = side_doc["points"]
            if points is None and clusters_doc["method"] == "xmeans" and side_doc["clusters"]:
                raise ValidationError(f"malformed {source}: xmeans clusters of {name} have no points")
            where = (((((None, "topics"), t), "sides"), side), "points")
            members = [] if points is None else [sid for c in side_doc["clusters"] for sid in c["members"]]
            for sid in members:
                if points.get(sid) is None:
                    raise ValidationError(f"malformed {source}: member {sid!r} of {name} has no point")
                _check_shape(points[sid], [_NUMBER], source, (where, sid))
                if len(points[sid]) != len(points[members[0]]):
                    raise ValidationError(f"malformed {source}: member {sid!r} of {name} has a point "
                                          f"of length {len(points[sid])}, not {len(points[members[0]])}")


def check_artifact(doc, artifact: str, path: str | Path) -> None:
    """Raise ValidationError, naming ``path``, unless ``doc`` has the structure
    the stages read from the ``artifact`` document."""
    _check_shape(doc, _ARTIFACT_SHAPES[artifact], f"artifact {path}")
    if artifact == "clusters":
        _check_points(doc, f"artifact {path}")


def check_consistency(docs: dict, paths: dict) -> None:
    """Raise ValidationError, naming the file, where the artifacts in ``docs``
    (stem -> document read from ``paths[stem]``) disagree: a topic id used
    twice in one artifact, a sentence id annotated twice, a cluster id used
    twice, a member of clusters on two topics or sides or of two x-means
    clusters, a member that is no salient sentence of its topic and side, a
    salient or member id that is no annotated sentence of its topic, a label
    of its own on a cluster unless the method is ``term`` (or none with it),
    a member of a term cluster without the cluster's term, a cluster with no
    member, a member twice, no label or two labels, a label for no cluster,
    or an aligned pair that names no labeled cluster of its topic and side or
    a cluster another pair names, is not labeled as its agree cluster is, or
    scores outside [threshold, 1]."""

    def fail(artifact: str, problem: str):
        raise ValidationError(f"inconsistent artifact {paths[artifact]}: {problem}")

    for artifact in ("annotations", "salient", "clusters", "alignment"):
        topic_ids = [t["topic_id"] for t in docs[artifact]["topics"]] if artifact in docs else []
        if len(set(topic_ids)) < len(topic_ids):
            repeated = Counter(topic_ids).most_common(1)[0][0]
            fail(artifact, f"topic id {repeated!r} is used twice")

    clusters = [
        (topic["topic_id"], side, c)
        for topic in docs["clusters"]["topics"]
        for side in SIDES
        for c in topic["sides"][side]["clusters"]
    ] if "clusters" in docs else []
    cluster_ids: set[str] = set()
    home: dict[str, str] = {}  # member id -> "topic/side" of its first cluster
    is_term = docs.get("clusters", {}).get("method") == "term"
    for topic_id, side, c in clusters:
        if c["cluster_id"] in cluster_ids:
            fail("clusters", f"cluster id {c['cluster_id']!r} is used twice")
        if (c["label"] is None) == is_term:  # a term cluster is labeled by its term
            fail("clusters", f"cluster {c['cluster_id']!r} has {'no' if is_term else 'a'} label "
                 f"of its own, but the method is {docs['clusters']['method']!r}")
        cluster_ids.add(c["cluster_id"])
        if not c["members"] or len(set(c["members"])) < len(c["members"]):
            fail("clusters", f"cluster {c['cluster_id']!r} lists no member, or a member twice")
        where = f"{topic_id}/{side}"
        for sid in c["members"]:  # a sentence has one comment, so one topic and side
            if home.setdefault(sid, where) != where:
                fail("clusters", f"sentence id {sid!r} is a member on {home[sid]} and on {where}")
    if not is_term and len(home) < sum(len(c["members"]) for _, _, c in clusters):
        repeated = Counter(sid for _, _, c in clusters for sid in c["members"]).most_common(1)[0][0]
        fail("clusters", f"sentence id {repeated!r} is a member of two x-means clusters")
    if "salient" in docs:  # cluster clusters the salient sentences of each topic and side
        selected = {
            (t["topic_id"], comment["side"], sid)
            for t in docs["salient"]["topics"]
            for comment in t["comments"] for sid in comment["sentence_ids"]
        }
        for topic_id, side, c in clusters:
            for sid in c["members"]:
                if (topic_id, side, sid) not in selected:
                    fail("clusters", f"member {sid!r} of {c['cluster_id']!r} is no salient sentence "
                         f"of topic {topic_id!r} and side {side!r} in {paths['salient']}")
    if "annotations" in docs:
        annotated = {
            t["topic_id"]: {s["sentence_id"] for s in t["sentences"]}
            for t in docs["annotations"]["topics"]
        }
        sentence_docs = [s for t in docs["annotations"]["topics"] for s in t["sentences"]]
        sentences = {s["sentence_id"]: s for s in sentence_docs}
        if len(sentences) < len(sentence_docs):
            repeated = Counter(s["sentence_id"] for s in sentence_docs).most_common(1)[0][0]
            fail("annotations", f"sentence id {repeated!r} is annotated twice")
        ids = [("clusters", topic_id, sid) for topic_id, _, c in clusters for sid in c["members"]]
        ids += [("salient", t["topic_id"], sid)
                for t in docs.get("salient", {"topics": []})["topics"]
                for comment in t["comments"] for sid in comment["sentence_ids"]]
        for artifact, topic_id, sid in ids:
            if sid not in annotated.get(topic_id, ()):
                fail(artifact, f"sentence id {sid!r} is not a sentence of topic {topic_id!r} "
                     f"in {paths['annotations']}")
        for _, _, c in clusters if is_term else ():  # a term cluster: the sentences with its term
            for sid in c["members"]:
                if c["label"] not in [a["canonical"] for a in sentences[sid]["annotations"]]:
                    fail("annotations", f"sentence {sid!r} lacks the term {c['label']!r} of its "
                         f"cluster {c['cluster_id']!r} in {paths['clusters']}")
    label_by_id: dict[str, str] = {}  # empty without labels.json: clusters' own labels only
    if "labels" in docs:
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
        threshold = docs["alignment"]["threshold"]
        label_of = {(t, side, c["cluster_id"]): _cluster_label(c, label_by_id) for t, side, c in clusters}
        paired: set[str] = set()
        for topic in docs["alignment"]["topics"]:
            for pair in topic["pairs"]:
                for side in SIDES:
                    cluster_id = pair[f"{side}_cluster_id"]
                    if label_of.get((topic["topic_id"], side, cluster_id)) in (None, UNLABELED):
                        fail("alignment", f"pair {pair['label']!r} names {cluster_id!r}, "
                             f"no labeled {side} cluster of topic {topic['topic_id']!r}")
                    if cluster_id in paired:
                        fail("alignment", f"cluster {cluster_id!r} is in two pairs")
                    paired.add(cluster_id)
                if label_of[topic["topic_id"], "agree", pair["agree_cluster_id"]] != pair["label"]:
                    fail("alignment", f"pair {pair['label']!r} is not labeled as its agree cluster is")
                if not threshold <= pair["similarity"] <= 1.0:
                    fail("alignment", f"pair {pair['label']!r} scores outside [{threshold}, 1]")


def check_ratings(doc, path: str | Path) -> None:
    """Raise ValidationError, naming ``path``, unless ``doc`` is a ratings file
    that ``eval stats`` can read: an object with ``samples`` (exactly the keys
    ``a`` and ``b``) and/or ``ratings``, each of its shape in RATINGS_SHAPE."""
    source = f"ratings file {path}"
    _check_shape(doc, {}, source)
    _check_shape(doc, {key: shape for key, shape in RATINGS_SHAPE.items() if key in doc}, source)
    if "samples" in doc and set(doc["samples"]) != {"a", "b"}:
        raise _shape_error(source, (None, "samples"), 'does not have exactly the keys "a" and "b"')
    if "samples" not in doc and "ratings" not in doc:
        raise _shape_error(source, None, 'has neither "samples" nor "ratings"')
