"""Source-level checks on the package."""

import ast
import importlib
import importlib.util
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


def _perfbench_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_benchmark_names_still_resolve():
    # The traced benchmark wraps these names from outside the package and
    # reads the table region's candidates; a rename breaks it silently.
    spans = _perfbench_spans()
    for table in (spans.TIMED, spans.COUNTED):
        for modname, names in table.items():
            module = importlib.import_module(f"toricgf.{modname}")
            missing = [name for name in names if not callable(getattr(module, name, None))]
            assert missing == [], f"toricgf.{modname} lacks {missing}"
    from toricgf.cohomology import DegreeRegion

    assert DegreeRegion(box=((0, 1), (0, 0))).candidates == ((0, 0), (1, 0))


def test_cli_counts_membership_only_through_cohomology():
    # The oracle's signed count is cohomology.reference_subcomplex, the same
    # per-cone count the corollaries use; the CLI does not sum its own.
    path = Path(toricgf.__file__).parent / "cli.py"
    names = {node.id for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Name)}
    assert "membership" not in names
    assert "reference_subcomplex" in names
