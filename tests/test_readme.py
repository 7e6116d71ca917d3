"""The README's command lines parse with the CLI's own parser, and every
library name it lists resolves in its module, so the docs cannot keep showing
a flag or a function that has gone. Every function and class that ``src/``
defines is used in ``src/`` or offered in the Library section, so helpers
that only tests call stay in ``tests/oracles.py``."""

import importlib
import re
import shlex
from collections import Counter

from conftest import REPO_ROOT

from debatesum.cli import build_parser


def readme_section(heading: str) -> str:
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def readme_command_lines() -> list[str]:
    block = readme_section("Command line").split("```bash\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("debatesum ")]


def test_readme_command_lines_parse():
    lines = readme_command_lines()
    assert lines
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            raise AssertionError(f"README command does not parse: {line}") from None


def test_readme_library_names_resolve():
    names = re.findall(r"`debatesum\.(\w+)\.(\w+)`", readme_section("Library"))
    assert names
    missing = [
        f"debatesum.{module}.{name}"
        for module, name in names
        if not callable(getattr(importlib.import_module(f"debatesum.{module}"), name, None))
    ]
    assert missing == []


def test_every_top_level_definition_is_used_in_src_or_listed_in_the_library():
    """A name counts as used where it appears as a word on any line of
    ``src/debatesum/*.py`` other than its own ``def`` or ``class`` line, string
    tables such as ``pipeline._DEFERRED`` included."""
    library = set(re.findall(r"`debatesum\.\w+\.(\w+)`", readme_section("Library")))
    paths = sorted((REPO_ROOT / "src" / "debatesum").glob("*.py"))
    lines = [line for path in paths for line in path.read_text(encoding="utf-8").splitlines()]
    words = Counter(word for line in lines for word in re.findall(r"\w+", line))
    unused = []
    for line in lines:
        match = re.match(r"(?:def|class) (\w+)", line)
        if match and match[1] not in library and words[match[1]] == re.findall(r"\w+", line).count(match[1]):
            unused.append(match[1])
    assert unused == []
