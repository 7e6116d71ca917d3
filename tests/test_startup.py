"""What a fresh interpreter loads: stages without numeric work start without
numpy, and importing one module loads only the modules it imports."""

import subprocess
import sys

from conftest import make_config, src_env

RUN_COMMAND = """
import sys
from debatesum.cli import main
code = main(sys.argv[1:])
print("numpy" in sys.modules)
sys.exit(code)
"""

LOAD_CONFIG = """
import sys
import debatesum.cli
debatesum.cli.load_config(sys.argv[1])
print("numpy" in sys.modules)
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


def numpy_loaded(script: str, *args: str) -> bool:
    return fresh_stdout(script, *args).splitlines()[-1] == "True"


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
