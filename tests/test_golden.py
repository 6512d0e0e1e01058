"""The ``--format machine`` output, the exit code and the stderr bytes must
stay identical on a golden corpus: the README fan, the acceptance
polytopes, a seeded battery of random 2-D and 3-D fans, the degree-0 query
and a box table of a 5-D fan with torsion, ``validate`` on incomplete fans
and on cone collections that are not fans, and ``polytope`` and
``validate`` on point lists with points that are not vertices.
``golden/make_corpus.py`` wrote the corpus; see its docstring before
regenerating it."""

import json
from pathlib import Path

import pytest

from toricgf.cli import main

CORPUS = json.loads((Path(__file__).parent / "golden" / "machine_corpus.json").read_text())


@pytest.mark.parametrize("case", CORPUS,
                         ids=[f"{c['name']}:{' '.join(c['args'])}" for c in CORPUS])
def test_machine_output_unchanged(case, tmp_path, capsysbinary):
    spec = tmp_path / "spec"
    spec.write_text(case["spec"])
    args = case["args"]
    code = main([args[0], str(spec), *args[1:], "--format", "machine"])
    captured = capsysbinary.readouterr()
    assert (code, captured.out, captured.err) == (
        case["code"], case["output"].encode(), case["stderr"].encode())
