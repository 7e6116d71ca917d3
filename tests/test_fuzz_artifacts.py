"""Stage commands on a mutated artifact end in a documented exit code.

One sample run writes every artifact. Each example changes one place of one
artifact and runs, in process, each stage command that reads it. The changes:
a value or an id dropped, duplicated or renamed; a number made NaN or
infinite; a list (a point) made longer or shorter; a value given another
type; a lone surrogate appended to a string; a list emptied. Whatever the
change, every command ends in exit 0, 2, 3 or 4, never in an uncaught
exception.
"""

import json
import math

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


@pytest.fixture(scope="module")
def sample_run(tmp_path_factory):
    """(config path, artifact -> document, work directory) of one sample run."""
    work = tmp_path_factory.mktemp("fuzz")
    config = make_config(work)
    assert main(["pipeline", "--config", str(config)]) == 0
    docs = {name: read_json(work / "out" / f"{name}.json") for name in ARTIFACTS}
    return config, docs, work


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
    """``doc`` with one place changed, the change drawn from ``data``, and a
    description of the change. Changes ``doc`` in place."""
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
    return box[0], f"{kind} at {list(path)}"


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_stage_commands_on_a_mutated_artifact_exit_0_2_3_or_4(sample_run, data):
    config, docs, work = sample_run
    artifact = data.draw(st.sampled_from(ARTIFACTS))
    doc = json.loads(json.dumps(docs[artifact]))
    doc, change = mutate(doc, data)
    mutated = work / "mutated.json"
    mutated.write_text(json.dumps(doc), encoding="utf-8")  # NaN, Infinity, \ud800 escapes
    for command, needs in READERS:
        if artifact not in needs:
            continue
        flags = [
            arg
            for name in needs
            for arg in (f"--{name}", str(mutated if name == artifact else work / "out" / f"{name}.json"))
        ]
        code = main([*command, "--config", str(config), "--out", str(work / "stage_out"), *flags])
        assert code in (0, 2, 3, 4), (command, artifact, change)
