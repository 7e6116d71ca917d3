"""Every demo runs to completion on the sample data, in its own interpreter."""

import subprocess
import sys

import pytest

from conftest import REPO_ROOT, src_env

DEMOS = sorted((REPO_ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo):
    done = subprocess.run(
        [sys.executable, str(demo)], env=src_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
