"""The record types are immutable values: assigning a field raises, records
built from equal values are equal, and those that hold only hashable values
hash. Each is a ``typing.NamedTuple``, so it is also the tuple of its values."""

from pathlib import Path

import numpy as np
import pytest

from debatesum.annotate import TermAnnotation
from debatesum.corpus import Comment, DebateTopic, Feature, GoldAnnotation, Sentence
from debatesum.evalkit import MannWhitneyResult, RougeScore, RougeVariant, SilhouetteReport
from debatesum.labeling import ContingencyCounts, LabelCandidate, TermIndex
from debatesum.pipeline import PipelineConfig, Stage
from debatesum.saliency import CommentScores, TopicSignature
from debatesum.vector_clustering import ClusteringResult, PcaModel


def _compute(config, inputs, docs):
    return {}


def _sentence():
    return Sentence(id="s1", position=1, text="Ice melts.", tokens=("ice", "melts"))


# record type, a factory of its field values (fresh objects on each call), and
# whether the record hashes: one holding a dict, list or array does not
RECORDS = [
    (Sentence, lambda: dict(id="s1", position=1, text="Ice melts.", tokens=("ice", "melts")), True),
    (Comment, lambda: dict(id="c1", side="agree", sentences=(_sentence(),)), True),
    (DebateTopic, lambda: dict(id="t1", title="Ice", comments=(
        Comment(id="c1", side="agree", sentences=(_sentence(),)),), title_tokens=("ice",)), True),
    (GoldAnnotation, lambda: dict(
        annotator_id="a1", comment_id="c1", selected_sentence_ids=frozenset({"s1"})), True),
    (TermAnnotation, lambda: dict(sentence_id="s1", term="ice", start=0, end=1), True),
    (RougeScore, lambda: dict(variant=RougeVariant.R1, recall=0.5, precision=0.25, f1=1 / 3), True),
    (SilhouetteReport, lambda: dict(per_point=(0.1, 0.3), mean=0.2), True),
    (MannWhitneyResult, lambda: dict(u_a=1.0, u_b=3.0, z=-0.5, p_two_sided=0.6, effect_r=0.1), True),
    (ContingencyCounts, lambda: dict(n11=1, n10=2, n01=3, n00=4), True),
    (LabelCandidate, lambda: dict(
        term="ice", score=0.5, method="mi", runner_up=("sea", 0.25)), True),
    (TermIndex, lambda: dict(terms={"s1": frozenset({"ice"})}, carriers={"ice": {"s1"}}), False),
    (PcaModel, lambda: dict(
        mean=np.zeros(1), components=np.ones((1, 1)), explained_variance=np.ones(1)), False),
    (ClusteringResult, lambda: dict(
        k=1, assignments=np.zeros(1, dtype=int), centroids=np.zeros((1, 1)), bic=-1.0,
        iterations=2), False),
    (TopicSignature, lambda: dict(term="ice", llr=12.5), True),
    (CommentScores, lambda: dict(
        raw={Feature.SP: [1.0]}, normalized={Feature.SP: [0.0]}, cb=[0.0]), False),
    (PipelineConfig, lambda: dict(
        corpus_path=Path("corpus.json"), gazetteer_path=Path("gazetteer.txt"),
        synonyms_path=Path("synonyms.tsv"), output_dir=Path("out")), True),
    (Stage, lambda: dict(
        command="annotate", artifact="annotations", needs=(), uses_inputs=True, help="annotate",
        compute=_compute), True),
]


@pytest.mark.parametrize(
    "record_type, make_values, hashes", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_records_are_immutable_values(record_type, make_values, hashes):
    values = make_values()
    record = record_type(**values)
    field = next(iter(values))
    with pytest.raises(AttributeError):
        setattr(record, field, values[field])
    assert record == record_type(**make_values())
    if hashes:
        assert hash(record) == hash(record_type(**make_values()))
    else:
        with pytest.raises(TypeError):
            hash(record)
    # a record is the tuple of its field values, defaults included
    assert record[: len(values)] == tuple(values.values())
    assert record._replace(**{field: values[field]}) == record
