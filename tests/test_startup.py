"""What a fresh interpreter loads: no command loads numpy, and a
``pipeline`` with gold and embeddings writes its golden bytes where numpy
cannot be imported; no command loads dataclasses, each command loads only its
own stage's algorithm modules, only the commands that select sentences load
the selection module, only the commands that read an artifact load its
checks, importing one module loads only the modules it imports, and
``pipeline`` hashes its manifest without mapping OpenSSL, which hmac, and so
numpy's random module, would map."""

import hashlib
import json
import re
import subprocess
import sys
from importlib import import_module

import pytest

from debatesum import pipeline
from debatesum.cli import main

from conftest import REPO_ROOT, SAMPLE_DIR, make_config, src_env
from test_golden_artifacts import GOLDEN

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


# the modules of the stage algorithms, which the CLI imports when a stage first calls one
ALGORITHMS = {
    "term_clustering", "vector_clustering", "labeling", "alignment", "chart", "evalkit",
}


# every command, in an order in which each finds the artifacts it reads
COMMANDS = (
    ["annotate"],
    ["select"],
    ["cluster", "--method", "term"],
    ["cluster", "--method", "xmeans"],
    ["label"],
    ["align"],
    ["chart"],
    ["eval", "silhouette"],
    ["eval", "rouge"],
    ["pipeline"],
)


@pytest.fixture(scope="module")
def modules_by_command(tmp_path_factory):
    """Command (or "import + load_config") -> the modules it loaded, each in a
    fresh interpreter on the sample inputs."""
    config = str(make_config(tmp_path_factory.mktemp("startup")))
    out = {"import + load_config": modules_loaded(LOAD_CONFIG, config)}
    for command in COMMANDS:
        out[" ".join(command)] = modules_loaded(RUN_COMMAND, *command, "--config", config)
    return out


def test_start_up_loads_no_algorithm_and_no_hashlib(modules_by_command):
    # no module imports hashlib: ``pipeline`` hashes its manifest with CPython's own SHA-256
    loaded = modules_by_command["import + load_config"]
    assert {f"debatesum.{m}" for m in ALGORITHMS} & loaded == set()
    assert "hashlib" not in loaded


def test_each_command_loads_only_its_own_algorithms(modules_by_command):
    loaded = {}
    for command in COMMANDS[:8]:  # the stage commands
        modules = modules_by_command[" ".join(command)]
        loaded[" ".join(command)] = {m for m in ALGORITHMS if f"debatesum.{m}" in modules}
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


def test_no_command_loads_dataclasses_and_only_selection_loads_saliency(modules_by_command):
    # dataclasses imports inspect, ast, dis and tokenize: about 11 ms per process
    loaded = modules_by_command
    assert [c for c, modules in loaded.items() if "dataclasses" in modules] == []
    assert [c for c, modules in loaded.items() if "inspect" in modules] == []
    assert {c for c, modules in loaded.items() if "debatesum.saliency" in modules} == {
        "select", "eval rouge", "pipeline",
    }


def test_only_the_commands_that_read_an_artifact_load_its_checks(modules_by_command):
    assert {c for c, modules in modules_by_command.items() if "debatesum.artifacts" in modules} == {
        "cluster --method term", "cluster --method xmeans", "label", "align", "chart",
        "eval silhouette",
    }


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """Clustering method -> (the modules a fresh ``pipeline`` process loaded,
    its output directory), on the sample inputs with gold."""
    out = {}
    for method in ("term", "xmeans"):
        tmp_path = tmp_path_factory.mktemp(f"pipeline-{method}")
        config = str(make_config(tmp_path, clustering_method=method))
        out[method] = modules_loaded(RUN_COMMAND, "pipeline", "--config", config), tmp_path / "out"
    return out


def test_pipeline_never_maps_openssl(pipeline_runs):
    # hashlib would load _hashlib and OpenSSL (3.6 MiB resident) for the manifest alone
    loaded, _ = pipeline_runs["term"]
    assert {"hashlib", "_hashlib"} & loaded == set()


RATINGS = {"samples": {"a": [1.0, 2.5, 2.5, 4.0], "b": [2.5, 3.0]}, "ratings": [[1, 2, None], [1, 3, 2]]}


def test_numpy_loads_only_for_numeric_stages(tmp_path):
    # every numeric stage runs in plain floats now, the ROUGE table and the
    # Mann-Whitney statistics too: numpy is a test dependency only
    config = str(make_config(tmp_path, embeddings_path=None))
    loaded = {"import + load_config": modules_loaded(LOAD_CONFIG, config)}
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
        loaded[" ".join(command)] = modules_loaded(RUN_COMMAND, *command, "--config", config)
    ratings = tmp_path / "ratings.json"
    ratings.write_text(json.dumps(RATINGS), encoding="utf-8")
    loaded["eval stats"] = modules_loaded(
        RUN_COMMAND, "eval", "stats", "--ratings", str(ratings), "--out", str(tmp_path / "stats.json"))
    assert {command: "numpy" in modules for command, modules in loaded.items()} == {
        "import + load_config": False,
        "annotate": False,
        "select": False,
        "cluster --method term": False,
        "label --method tfidf": False,
        "align": False,
        "chart": False,
        "cluster --method xmeans": False,
        "eval silhouette": False,  # of the x-means clusters
        "eval rouge": False,
        "eval stats": False,
    }


def test_x_means_pipeline_without_gold_or_embeddings_loads_no_numpy(tmp_path):
    config = str(make_config(tmp_path, embeddings_path=None, gold_path=None))
    loaded = modules_loaded(RUN_COMMAND, "pipeline", "--config", config)
    assert "numpy" not in loaded
    # embeddings are arrays of doubles, whose module maps a shared library: only
    # a run that reads embeddings loads it
    assert "array" not in loaded


def test_silhouette_loads_numpy_only_for_term_clusters(tmp_path):
    # the euclidean silhouette of x-means clusters and, now, the cosine
    # silhouette of term clusters both run in plain floats
    config = str(make_config(tmp_path, embeddings_path=None))
    loaded = {}
    for method in ("xmeans", "term"):
        for command in (["annotate"], ["select"], ["cluster", "--method", method]):
            assert main([*command, "--config", config]) == 0
        silhouette = modules_loaded(RUN_COMMAND, "eval", "silhouette", "--config", config)
        loaded[f"eval silhouette ({method})"] = silhouette
    loaded["pipeline"] = modules_loaded(RUN_COMMAND, "pipeline", "--config", config)
    assert {command: "numpy" in modules for command, modules in loaded.items()} == {
        "eval silhouette (xmeans)": False,
        "eval silhouette (term)": False,
        "pipeline": False,
    }


def test_no_command_loads_numpy(modules_by_command, pipeline_runs):
    # with gold and embeddings too: COS_STT and the ROUGE table of the gold run
    loaded = dict(modules_by_command)
    loaded.update({f"pipeline ({method})": modules for method, (modules, _) in pipeline_runs.items()})
    assert [command for command, modules in loaded.items() if "numpy" in modules] == []


# numpy set to None in ``sys.modules``: every import of it raises ImportError
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from debatesum.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_pipeline_writes_its_golden_bytes_where_numpy_cannot_be_imported(tmp_path):
    # the sample config with term clusters: COS_STT, the ROUGE table of the gold
    # and the cosine silhouette all run
    raw = json.loads((SAMPLE_DIR / "config.json").read_text(encoding="utf-8"))
    for key in ("corpus_path", "gold_path", "gazetteer_path", "synonyms_path", "embeddings_path"):
        raw[key] = str(SAMPLE_DIR / raw[key])
    raw.update(clustering_method="term", labeling_method="mi", output_dir=str(tmp_path / "out"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    fresh_stdout(WITHOUT_NUMPY, "pipeline", "--config", str(config))
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "out").iterdir() if p.name != "manifest.json"}
    assert written == GOLDEN[("term", "mi")]


def test_x_means_and_silhouette_never_load_numpy_random(pipeline_runs, modules_by_command):
    # numpy's random module imports secrets, hmac, hashlib and _hashlib, which maps
    # OpenSSL: about 6 MiB resident; X-means draws from debatesum._pcg64 instead,
    # and no command loads any of them
    loaded = {**modules_by_command, **{f"pipeline ({m})": mods for m, (mods, _) in pipeline_runs.items()}}
    unwanted = {"numpy.random", "secrets", "hmac", "hashlib", "_hashlib"}
    assert {c: unwanted & modules for c, modules in loaded.items()} == {c: set() for c in loaded}
    package = REPO_ROOT / "src" / "debatesum"
    files = [p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    assert [p.name for p in files if re.search(rb"n(um)?py\.random", p.read_bytes())] == []


@pytest.mark.parametrize("method", ["term", "xmeans"])
def test_manifest_digests_are_sha256_of_the_written_files(pipeline_runs, method):
    _, out = pipeline_runs[method]
    artifacts = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["artifacts"]
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert artifacts == {
        name: "sha256:" + hashlib.sha256((out / name).read_bytes()).hexdigest() for name in written
    }


def test_without_a_built_in_sha256_the_manifest_uses_hashlib(monkeypatch):
    def without_built_in(name):
        if name in ("_sha2", "_sha256"):
            raise ImportError(name)
        return import_module(name)

    monkeypatch.setattr(pipeline, "import_module", without_built_in)
    assert pipeline._sha256() is hashlib.sha256
