"""The README's command lines parse with the CLI's own parser, so the docs
cannot keep showing a flag that has gone."""

import shlex

from conftest import REPO_ROOT

from debatesum.cli import build_parser


def readme_command_lines() -> list[str]:
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("debatesum ")]


def test_readme_command_lines_parse():
    lines = readme_command_lines()
    assert lines
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            raise AssertionError(f"README command does not parse: {line}") from None
