"""Source-level checks on the package."""

import ast
from pathlib import Path

import pytest

import toricgf

MODULES = sorted(Path(toricgf.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_statements(path):
    # ``python -O`` strips assert statements, so an internal check written as
    # one would silently vanish; checks raise InternalCheckFailed instead.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"
