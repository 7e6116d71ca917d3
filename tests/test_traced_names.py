"""The benchmark's traced runs wrap program functions by name
(``bench/tracing.py``, table ``WRAPPED``): each must stay an attribute of the
module the tracer looks it up on, or every traced command fails before it
runs. The tracer is read as text, not run."""

import ast
import importlib

from conftest import REPO_ROOT


def wrapped_table() -> dict:
    tree = ast.parse((REPO_ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py has no WRAPPED table")


def test_every_wrapped_name_is_a_function_of_its_module():
    table = wrapped_table()
    assert table
    missing = [
        f"{module_name}.{name}"
        for module_name, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(module_name), name, None))
    ]
    assert missing == []
