"""One round of each benchmark workload at seed 1, run as the benchmark
runs it: each operation is one ``cli.main`` call with the argv a user would
type, and its report is checked by the benchmark's own checkers, which
never import the package.  Every operation must exit 0 and every check
must pass."""

import importlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from toricgf.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("fan3d_brion", "polytope_brion", "degree_queries")


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``workloads`` and ``checks`` modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads"), importlib.import_module("checks")
    finally:
        sys.path.remove(str(PERFBENCH))


def run_operation(op, spec_path):
    """The exit code, stdout bytes and stderr text of one operation."""
    argv = [str(spec_path) if a == "{spec}" else a for a in op.argv]
    buf, err = io.BytesIO(), io.StringIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
        out.flush()
    return code, buf.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_workload_round_exits_0_and_passes_its_checks(workload, bench, tmp_path):
    workloads, checks = bench
    assert workloads.WORKLOADS == WORKLOADS
    ops = workloads.operations(workload, 1)
    assert ops
    failures = []
    for i, op in enumerate(ops):
        path = tmp_path / f"op{i}.spec"
        path.write_text(workloads.spec_text(op.spec))
        code, out, err = run_operation(op, path)
        reason = f"exit {code}: {err.strip()}" if code else checks.check(op, json.loads(out))
        if reason is not None:
            failures.append((op.label, reason))
    assert failures == []
