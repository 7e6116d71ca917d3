"""Every demo runs to completion on the sample data, in its own interpreter,
and prints the text committed beside it in ``demos/expected/``."""

import subprocess
import sys

import pytest

from conftest import REPO_ROOT, src_env

DEMOS = sorted((REPO_ROOT / "demos").glob("0*.py"))


@pytest.fixture(scope="module", params=DEMOS, ids=lambda path: path.name)
def demo_run(request):
    done = subprocess.run(
        [sys.executable, str(request.param)], env=src_env(), capture_output=True, text=True,
        timeout=120,
    )
    return request.param, done


def test_demo_exits_0(demo_run):
    _, done = demo_run
    assert done.returncode == 0, done.stderr


def test_demo_prints_its_expected_text(demo_run):
    """Byte for byte, with the repository root (demo 05 prints the paths it
    writes) replaced by ``<repo>``."""
    demo, done = demo_run
    expected = (REPO_ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert done.stdout.replace(str(REPO_ROOT), "<repo>") == expected
