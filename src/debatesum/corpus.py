"""Two-sided debate corpus: loading, validation, tokenization, gold annotations.

The corpus file is a single JSON document::

    {"topics": [{"id", "title", "comments": [
        {"id", "side": "agree"|"disagree",
         "sentences": [{"id", "position", "text"}]}]}]}

Gold annotations (one selection per annotator per comment)::

    {"annotations": [{"annotator_id", "comment_id", "selected": [sentence ids]}]}

Loaded structures are immutable values; everything downstream treats them as
read-only, so the stages of one run share them.
"""

from __future__ import annotations

import json
import math
import re
import sys
import warnings
from enum import Enum
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import ComputationError, ConfigError, ParseError, ValidationError

# Lowercase alphanumeric runs, keeping hyphens that sit between alphanumerics
# ("sea-level" stays one token, underscores split).
_TOKEN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*", re.UNICODE)
# The JSON escape of a UTF-16 surrogate; a string can hold a lone one only through it.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def read_text(path: str | Path) -> str:
    """The file's text, newlines as written: ConfigError if it cannot be read,
    ParseError naming the byte offset if it is not UTF-8."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8 at byte {exc.start}", source=str(path)) from None


def _unwritable(value, where: str) -> tuple[str, object] | None:
    """(where, value) of the first NaN, infinity or string with a lone
    surrogate in ``value``, keys included; None if there is none."""
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return where, value
    elif isinstance(value, float) and not math.isfinite(value):
        return where, value
    elif isinstance(value, list):
        for i, item in enumerate(value):
            if found := _unwritable(item, f"{where}[{i}]"):
                return found
    elif isinstance(value, dict):
        for key, item in value.items():
            if found := _unwritable(key, where) or _unwritable(item, f"{where}.{key}"):
                return found
    return None


def read_json(path: str | Path):
    """Parse a JSON file: ``read_text``'s errors, or ParseError if it is not
    JSON, or holds NaN, Infinity or a string with a lone surrogate."""
    text = read_text(path)
    constants: list[str] = []  # NaN, Infinity and -Infinity, as they occur
    try:
        doc = json.loads(text, parse_constant=lambda token: constants.append(token) or float(token))
    except ValueError as exc:
        raise ParseError(f"not valid JSON: {exc}", source=str(path)) from exc
    # only these tokens and escapes make values that the walk looks for
    if (constants or _SURROGATE_ESCAPE.search(text)) and (found := _unwritable(doc, "$")):
        where, value = found
        problem = "holds a lone surrogate" if isinstance(value, str) else "is not a finite number"
        raise ParseError(f"{value!r} at {where} {problem}", source=str(path))
    return doc


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line that is neither blank nor a '#' comment."""
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def tokenize(text: str) -> list[str]:
    """Deterministic lowercase tokenization; idempotent on its own output."""
    return _TOKEN_RE.findall(text.lower())


def salient_count(n_sentences: int, ratio: float = 0.2) -> int:
    """Number of sentences a 20%-style selection keeps: ceil(ratio*n), min 1."""
    return max(1, math.ceil(ratio * n_sentences))


def salient_indices(column: list[float], ratio: float = 0.2) -> list[int]:
    """Indices of the ``salient_count`` largest values of ``column``, in index
    order; the reverse sort is stable, so ties break toward the lower index."""
    if not 0.0 < ratio <= 1.0:
        raise ComputationError(f"selection ratio must be in (0, 1], got {ratio}")
    ranked = sorted(range(len(column)), key=column.__getitem__, reverse=True)
    return sorted(ranked[: salient_count(len(column), ratio)])


# The two sides of a debate, in the order every artifact lists them.
SIDES = ("agree", "disagree")


# chi-squared critical value (1 dof, p < 0.001); default signature cutoff
LLR_THRESHOLD_P001 = 10.83


class Feature(str, Enum):
    """The salience features of ``debatesum.saliency``, which scores them."""

    SP = "SP"
    SL = "SL"
    TT = "TT"
    CJ = "CJ"
    COS_TPS = "COS_TPS"
    COS_CCTS = "COS_CCTS"
    COS_TTS = "COS_TTS"
    COS_STT = "COS_STT"
    CB = "CB"


class Sentence(NamedTuple):
    id: str
    position: int  # 1-based index within its comment
    text: str
    tokens: tuple[str, ...] = ()

    @staticmethod
    def make(id: str, position: int, text: str) -> "Sentence":
        # interned: a corpus repeats few distinct tokens, so each is held once
        return Sentence(id, position, text, tuple(map(sys.intern, tokenize(text))))


class Comment(NamedTuple):
    id: str
    side: str  # one of SIDES
    sentences: tuple[Sentence, ...]


class DebateTopic(NamedTuple):
    id: str
    title: str
    comments: tuple[Comment, ...]
    title_tokens: tuple[str, ...]  # tokenize(title), required: () would score TT and COS_TTS 0


class GoldAnnotation(NamedTuple):
    annotator_id: str
    comment_id: str
    selected_sentence_ids: frozenset[str]


class GoldCountWarning(UserWarning):
    """An annotator selected a count other than ceil(0.2 * n); real data may."""


def _require(obj: dict, key: str, kind: type, record: str) -> object:
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing required key {key!r} in record {record}")
    value = obj[key]
    if kind is str and not isinstance(value, str):
        raise ParseError(f"key {key!r} must be a string in record {record}")
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ParseError(f"key {key!r} must be an integer in record {record}")
    if kind is list and not isinstance(value, list):
        raise ParseError(f"key {key!r} must be a list in record {record}")
    return value


def _record_id(obj: dict, what: str, parent: str | None) -> str:
    """The id of a topic, comment or sentence record: a nonempty string."""
    record = f"{parent}/<{what}>" if parent else f"<{what}>"
    rid = str(_require(obj, "id", str, record))
    if not rid:
        raise ValidationError(f"{what} id must be nonempty", record=parent or record)
    return rid


def load_corpus(path: str | Path) -> list[DebateTopic]:
    """Load and validate a corpus file, tokenizing every sentence and title.

    Raises ParseError for malformed JSON/schema and ValidationError for
    violated invariants (duplicate ids, unknown side, gaps in sentence
    positions, empty comment lists).
    """
    path = Path(path)
    raw = read_json(path)

    topics_raw = _require(raw, "topics", list, "<root>")
    topics: list[DebateTopic] = []
    topic_ids: set[str] = set()
    comment_ids: set[str] = set()
    sentence_ids: set[str] = set()

    for t in topics_raw:
        tid = _record_id(t, "topic", None)
        if tid in topic_ids:
            raise ValidationError("duplicate topic id", record=tid)
        topic_ids.add(tid)
        title = str(_require(t, "title", str, tid))
        comments_raw = _require(t, "comments", list, tid)
        if not comments_raw:
            raise ValidationError("topic has an empty comment list", record=tid)

        comments: list[Comment] = []
        for c in comments_raw:
            cid = _record_id(c, "comment", tid)
            if cid in comment_ids:
                raise ValidationError("duplicate comment id", record=cid)
            comment_ids.add(cid)
            side = str(_require(c, "side", str, cid))
            if side not in SIDES:
                raise ValidationError(
                    f"unknown side {side!r} (expected 'agree' or 'disagree')", record=cid
                )
            sentences_raw = _require(c, "sentences", list, cid)
            if not sentences_raw:
                raise ValidationError("comment has no sentences", record=cid)

            sentences: list[Sentence] = []
            for i, s in enumerate(sentences_raw):
                sid = _record_id(s, "sentence", cid)
                if sid in sentence_ids:
                    raise ValidationError("duplicate sentence id", record=sid)
                sentence_ids.add(sid)
                position = int(_require(s, "position", int, sid))
                if position != i + 1:
                    raise ValidationError(
                        f"sentence positions must be contiguous from 1 (got {position} at index {i})",
                        record=sid,
                    )
                text = str(_require(s, "text", str, sid))
                sentences.append(Sentence.make(sid, position, text))
            comments.append(Comment(id=cid, side=side, sentences=tuple(sentences)))
        topics.append(DebateTopic(tid, title, tuple(comments), tuple(tokenize(title))))
    return topics


def load_gold(path: str | Path, corpus: list[DebateTopic]) -> list[GoldAnnotation]:
    """Load gold salient-sentence selections and cross-validate against the corpus.

    A selection count different from ceil(0.2 * n) raises a GoldCountWarning
    (recorded, not fatal); dangling comment or sentence ids, and a file with
    no annotations, are errors.
    Output is ordered by corpus comment order, then annotator id.
    """
    path = Path(path)
    raw = read_json(path)

    comments: dict[str, Comment] = {}
    order: dict[str, int] = {}
    for t in corpus:
        for c in t.comments:
            comments[c.id] = c
            order[c.id] = len(order)

    annotations: list[GoldAnnotation] = []
    for a in _require(raw, "annotations", list, "<root>"):
        annotator = str(_require(a, "annotator_id", str, "<annotation>"))
        comment_id = str(_require(a, "comment_id", str, annotator))
        record = f"{annotator}/{comment_id}"
        selected = _require(a, "selected", list, record)
        if not all(isinstance(sid, str) for sid in selected):
            raise ParseError(f"key 'selected' must be a list of strings in record {record}")
        if comment_id not in comments:
            raise ValidationError("annotation references unknown comment", record=comment_id)
        comment = comments[comment_id]
        known = {s.id for s in comment.sentences}
        for sid in selected:
            if sid not in known:
                raise ValidationError(
                    f"annotation references unknown sentence {sid!r}", record=comment_id
                )
        expected = salient_count(len(comment.sentences))
        if len(set(selected)) != expected:
            warnings.warn(
                f"annotator {annotator!r} selected {len(set(selected))} sentences from "
                f"comment {comment_id!r} of {len(comment.sentences)} (expected {expected})",
                GoldCountWarning,
                stacklevel=2,
            )
        annotations.append(
            GoldAnnotation(
                annotator_id=annotator,
                comment_id=comment_id,
                selected_sentence_ids=frozenset(selected),
            )
        )
    if not annotations:
        raise ValidationError(f"gold file {path} has no annotations")
    annotations.sort(key=lambda g: (order[g.comment_id], g.annotator_id))
    return annotations
