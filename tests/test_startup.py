"""What a fresh interpreter loads: stages without numeric work start without numpy."""

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


def numpy_loaded(script: str, *args: str) -> bool:
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, (args, done.stderr)
    return done.stdout.splitlines()[-1] == "True"


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
    }
