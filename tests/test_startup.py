"""What a fresh interpreter loads: stages without numeric work start without
numpy, each command loads only its own stage's algorithm modules, and
importing one module loads only the modules it imports."""

import subprocess
import sys

from conftest import make_config, src_env

RUN_COMMAND = """
import sys
from debatesum.cli import main
code = main(sys.argv[1:])
print(" ".join(sys.modules))
sys.exit(code)
"""

LOAD_CONFIG = """
import sys
import debatesum.cli
debatesum.cli.load_config(sys.argv[1])
print(" ".join(sys.modules))
"""

LOADED_MODULES = """
import importlib, sys
importlib.import_module(sys.argv[1])
print(" ".join(m for m in sys.modules if m.split(".")[0] == "debatesum"))
"""


def fresh_stdout(script: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, (args, done.stderr)
    return done.stdout


def debatesum_modules(module: str) -> set[str]:
    return set(fresh_stdout(LOADED_MODULES, module).split())


def test_a_module_loads_only_what_it_imports():
    # the package root imports nothing, so a module pays only for its own imports
    assert debatesum_modules("debatesum.corpus") == {
        "debatesum", "debatesum.corpus", "debatesum.errors",
    }
    assert "debatesum.pipeline" not in debatesum_modules("debatesum.evalkit")


def modules_loaded(script: str, *args: str) -> set[str]:
    """Names in ``sys.modules`` after ``script`` ran, from its last output line."""
    return set(fresh_stdout(script, *args).splitlines()[-1].split())


def numpy_loaded(script: str, *args: str) -> bool:
    return "numpy" in modules_loaded(script, *args)


def test_numpy_loads_only_for_numeric_stages(tmp_path):
    config = str(make_config(tmp_path, embeddings_path=None))
    loaded = {"import + load_config": numpy_loaded(LOAD_CONFIG, config)}
    for command in (
        ["annotate"],
        ["select"],
        ["cluster", "--method", "term"],
        ["label", "--method", "tfidf"],
        ["align"],
        ["chart"],
        ["cluster", "--method", "xmeans"],
        ["eval", "silhouette"],
        ["eval", "rouge"],
    ):
        loaded[" ".join(command)] = numpy_loaded(RUN_COMMAND, *command, "--config", config)
    assert loaded == {
        "import + load_config": False,
        "annotate": False,
        "select": False,
        "cluster --method term": False,
        "label --method tfidf": False,
        "align": False,
        "chart": False,
        "cluster --method xmeans": True,
        "eval silhouette": True,
        "eval rouge": True,
    }


# the modules of the stage algorithms, which the CLI imports when a stage first calls one
ALGORITHMS = {
    "term_clustering", "vector_clustering", "labeling", "alignment", "chart", "evalkit",
}


def algorithms_loaded(script: str, *args: str) -> set[str]:
    loaded = modules_loaded(script, *args)
    return {m for m in ALGORITHMS if f"debatesum.{m}" in loaded}


def test_start_up_loads_no_algorithm_and_no_hashlib(tmp_path):
    # hashlib serves only the manifest that ``pipeline`` writes
    loaded = modules_loaded(LOAD_CONFIG, str(make_config(tmp_path)))
    assert {f"debatesum.{m}" for m in ALGORITHMS} & loaded == set()
    assert "hashlib" not in loaded


def test_each_command_loads_only_its_own_algorithms(tmp_path):
    config = str(make_config(tmp_path))
    loaded = {}
    for command in (
        ["annotate"],
        ["select"],
        ["cluster", "--method", "term"],
        ["cluster", "--method", "xmeans"],
        ["label"],
        ["align"],
        ["chart"],
        ["eval", "silhouette"],
    ):
        loaded[" ".join(command)] = algorithms_loaded(
            RUN_COMMAND, *command, "--config", config
        )
    allowed = {
        "annotate": set(),
        "select": set(),
        "cluster --method term": {"term_clustering"},
        "cluster --method xmeans": {"vector_clustering"},
        "label": {"labeling"},
        "align": {"alignment"},
        "chart": {"chart"},
        "eval silhouette": {"evalkit"},
    }
    assert {c: modules - allowed[c] for c, modules in loaded.items()} == {c: set() for c in loaded}
    # and each stage loads the module that holds its algorithm
    assert {"term_clustering"} <= loaded["cluster --method term"]
    assert {"vector_clustering"} <= loaded["cluster --method xmeans"]
    assert {"labeling"} <= loaded["label"]
    assert {"alignment"} <= loaded["align"]
    assert {"chart"} <= loaded["chart"]
    assert {"evalkit"} <= loaded["eval silhouette"]
