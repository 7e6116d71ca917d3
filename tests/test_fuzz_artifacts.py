"""Stage commands on a mutated artifact keep their output or reject it.

One sample run writes every artifact, and each stage command that reads one
writes its reference output from them. Each example changes one place of one
artifact and runs, in process, each stage command that reads it. The changes:
a value or an id dropped, duplicated or renamed; a number made NaN or
infinite; a list (a point) made longer or shorter; a value given another
type; a lone surrogate appended to a string; a list emptied. Whatever the
change, every command either exits 0 and writes its reference output byte
for byte, or exits 2 or 3 (a config or a validation error). Exit 4, or an
uncaught exception, fails. So does exit 0 with other output, unless the
change is one of the ``LEGITIMATE`` edits below.
"""

import json
import math
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config

from debatesum.cli import main
from debatesum.pipeline import STAGES, read_json

# (command, artifacts it reads) for every stage command that reads one
READERS = [
    (["eval", "silhouette"] if stage.command == "eval" else [stage.command], stage.needs)
    for stage in STAGES
    if stage.needs
]
ARTIFACTS = sorted({name for _, needs in READERS for name in needs})
OTHER_VALUES = (None, True, 0, 2.5, "ghost", [], {})

# Changes after which the files a command reads still agree with each other,
# so that they are the files of another input: the command may exit 0 with
# other output. Each is a change kind and a pattern of the changed place's
# path, written as its keys and indexes joined by "/", with "N" for an index.
LEGITIMATE = (
    # entries left out of a list (a list made longer fails the checks): the
    # files of a smaller input, with fewer topics, comments, selected
    # sentences, annotations, clusters, members or pairs
    ("drop", r".*/N"),
    ("empty", r".*"),
    ("resize", r".*"),
    # an empty "dropped" or "unclustered" list renamed "pairs" or "clusters":
    # a topic without pairs, a side without clusters
    ("rename_key", r"topics/N/(dropped|sides/[^/]+/unclustered)"),
    # another key of a labels.json entry renamed "label": a label rewritten
    ("rename_key", r"clusters/N/[^/]+"),
    # a term annotated twice: it occurs twice in the sentence
    ("duplicate", r".*/annotations/N"),
    # a name or a term that no other file the command reads holds: a topic or
    # cluster renamed, a label or canonical term rewritten, a comment moved to
    # the other side, another sentence of the topic selected
    ("rename", r".*/(topic_id|cluster_id|canonical|side|sentence_ids/N)|clusters/N/label"),
    # a point's coordinate given another number type (0 for a float)
    ("retype", r".*/points/[^/]+/N"),
)


def legitimate(kind: str, path: tuple) -> bool:
    place = "/".join("N" if isinstance(step, int) else step for step in path)
    return any(kind == k and re.fullmatch(pattern, place) for k, pattern in LEGITIMATE)


def run(command: list[str], needs: tuple, config, work, replaced: dict) -> tuple[int, dict]:
    """Exit code and written files (name -> bytes) of ``command`` on the sample
    run's artifacts, each one in ``replaced`` (stem -> path) read from there."""
    out = work / "stage_out"
    shutil.rmtree(out, ignore_errors=True)
    flags = [
        arg
        for name in needs
        for arg in (f"--{name}", str(replaced.get(name) or work / "out" / f"{name}.json"))
    ]
    code = main([*command, "--config", str(config), "--out", str(out), *flags])
    return code, {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}


@pytest.fixture(scope="module")
def sample_run(tmp_path_factory):
    """(config path, artifact -> document, work directory, command -> its
    written files on the unmutated artifacts) of one sample run."""
    work = tmp_path_factory.mktemp("fuzz")
    config = make_config(work)
    assert main(["pipeline", "--config", str(config)]) == 0
    docs = {name: read_json(work / "out" / f"{name}.json") for name in ARTIFACTS}
    reference = {}
    for command, needs in READERS:
        code, reference[" ".join(command)] = run(command, needs, config, work, {})
        assert code == 0 and reference[" ".join(command)], command
    return config, docs, work, reference


def places(value, path=()):
    """The path (keys and indexes) of every place in a JSON document."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from places(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from places(item, (*path, i))


def strings(value) -> set:
    """Every string of a JSON document, keys included."""
    if isinstance(value, str):
        return {value}
    if isinstance(value, dict):
        return set(value).union(*map(strings, value.values()))
    if isinstance(value, list):
        return set().union(*map(strings, value))
    return set()


def mutations(target, parent) -> list[str]:
    kinds = ["retype"]
    if parent is not None:
        kinds.append("drop")
    if isinstance(parent, list):
        kinds.append("duplicate")
    if isinstance(parent, dict):
        kinds.append("rename_key")
    if isinstance(target, str):
        kinds += ["rename", "surrogate"]
    if isinstance(target, (int, float)) and not isinstance(target, bool):
        kinds.append("non_finite")
    if isinstance(target, list):
        kinds += ["resize", "empty"]
    return kinds


def mutate(doc, data):
    """``doc`` with one place changed, the change drawn from ``data``, the
    change's kind and the path to the place. Changes ``doc`` in place."""
    path = data.draw(st.sampled_from(list(places(doc))))
    box = [doc]  # so that the root, too, has a parent
    parent, key = box, 0
    for step in path:
        parent, key = parent[key], step
    target = parent[key]
    kind = data.draw(st.sampled_from(mutations(target, parent if path else None)))
    names = st.sampled_from(sorted(strings(doc) | {"ghost", ""}))
    if kind == "drop":
        del parent[key]
    elif kind == "duplicate":
        parent.insert(key, json.loads(json.dumps(target)))
    elif kind == "rename_key":
        parent[data.draw(names)] = parent.pop(key)
    elif kind == "resize":
        if target and data.draw(st.booleans()):
            target.pop()
        else:
            target.append(0.0)
    elif kind == "empty":
        target.clear()
    elif kind == "rename":
        parent[key] = data.draw(names)
    elif kind == "surrogate":
        parent[key] = target + "\ud800"
    elif kind == "non_finite":
        parent[key] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    else:  # retype
        parent[key] = data.draw(st.sampled_from([v for v in OTHER_VALUES if type(v) is not type(target)]))
    return box[0], kind, path


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_stage_commands_on_a_mutated_artifact_exit_0_2_3_or_4(sample_run, data):
    config, docs, work, reference = sample_run
    artifact = data.draw(st.sampled_from(ARTIFACTS))
    doc = json.loads(json.dumps(docs[artifact]))
    doc, kind, path = mutate(doc, data)
    mutated = work / "mutated.json"
    mutated.write_text(json.dumps(doc), encoding="utf-8")  # NaN, Infinity, \ud800 escapes
    for command, needs in READERS:
        if artifact not in needs:
            continue
        code, written = run(command, needs, config, work, {artifact: mutated})
        change = (command, artifact, f"{kind} at {list(path)}")
        if code == 0 and written != reference[" ".join(command)]:
            assert legitimate(kind, path), change
        assert code in (0, 2, 3), change
