"""Tests of the benchmark's output checkers against hand-worked reports.

    python3 -m pytest perfbench -q
"""

import io
import json
import sys
from contextlib import redirect_stdout
from itertools import product
from pathlib import Path

import pytest

import checks
import workloads
from workloads import Operation

README_FAN = {"dim": 2, "rays": [[1, 1], [0, 1], [-1, 1], [0, -1]],
              "maximal_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
              "support": [0, -2, 0, -2]}
# x2^-1 - x1^-1*x2 - 1 - x2 - x1*x2
README_CHI = [[[0, -1], 1], [[-1, 1], -1], [[0, 0], -1], [[0, 1], -1], [[1, 1], -1]]
# Per maximal cone: x^a / prod(1 - x^u) with a = -h_sigma and u the dual basis.
README_TERMS = [([-2, 2], [[1, 0], [-1, 1]]), ([2, 2], [[1, 1], [-1, 0]]),
                ([-2, -2], [[-1, 0], [-1, -1]]), ([2, -2], [[1, -1], [1, 0]])]
HOLDS = {name: {"holds": True, "witness": None}
         for name in ("h0_hn_exclusive", "reduced_euler", "top_cohomology")}


def _terms(terms):
    return [{"cone_rays": [], "numerator": [[a, 1]], "denominator_factors": u}
            for a, u in terms]


def readme_report():
    """Hand-worked brion report of the README fan (a fresh copy each call)."""
    rows = [{"degree": e, "dims": [0, 0, 1] if c == 1 else [0, 1, 0],
             "torsion": [[], [], []], "chi": c} for e, c in README_CHI]
    report = {"command": "brion",
              "fan": {"dim": 2, "rays": README_FAN["rays"], "num_cones": 9,
                      "num_maximal": 4, "complete": True, "witness": None},
              "support_values": README_FAN["support"], "coefficient_field": "rational",
              "region": [[-2, 2], [-2, 2]], "table": rows,
              "chi_polynomial": README_CHI, "brion_terms": _terms(README_TERMS),
              "identity_holds": True, "corollaries": HOLDS}
    return json.loads(json.dumps(report))


def box_polytope_report(n, k):
    """Hand-built report for the cube [0,k]^n: one unimodular term per vertex."""
    verts = [list(v) for v in product((0, k), repeat=n)]
    points = [list(p) for p in product(range(k + 1), repeat=n)]
    rays, values = [], []
    for i in range(n):
        for s in (1, -1):
            u = [0] * n
            u[i] = s
            rays.append(u)
            values.append(0 if s == 1 else k)
    terms = []
    for v in verts:
        factors = [[(1 if v[i] == 0 else -1) if j == i else 0 for j in range(n)]
                   for i in range(n)]
        terms.append((v, factors))
    h0 = [1] + [0] * n
    return {"command": "polytope",
            "fan": {"dim": n, "rays": rays, "num_cones": 3 ** n,
                    "num_maximal": 2 ** n, "complete": True, "witness": None},
            "support_values": values, "coefficient_field": "rational",
            "region": [[0, k]] * n,
            "table": [{"degree": p, "dims": h0, "torsion": [[]] * (n + 1), "chi": 1}
                      for p in points],
            "chi_polynomial": [[p, 1] for p in points],
            "brion_terms": _terms(terms), "identity_holds": True,
            "corollaries": json.loads(json.dumps(HOLDS))}


def box_spec(n, k):
    return {"dim": n, "polytope": [list(v) for v in product((0, k), repeat=n)]}


def test_readme_fan_signed_count():
    count = checks.signed_counter(README_FAN)
    chi = {tuple(e): c for e, c in README_CHI}
    for b in product(range(-4, 5), repeat=2):
        assert count(b) == chi.get(b, 0)


def test_readme_fan_report_passes():
    assert checks.check_fan_brion(README_FAN, readme_report()) is None


def test_readme_fan_h2_query():
    report = {"command": "cohomology", "coefficient_field": "rational",
              "fan": readme_report()["fan"],
              "table": [{"degree": [0, -1], "dims": [0, 0, 1],
                         "torsion": [[], [], []], "chi": 1}]}
    assert checks.check_query(README_FAN, report, (0, -1), None) is None
    report["table"][0]["dims"] = [0, 1, 0]
    report["table"][0]["chi"] = -1
    assert checks.check_query(README_FAN, report, (0, -1), None) is not None


@pytest.mark.parametrize("mutate", [
    lambda r: r["chi_polynomial"].pop(),
    lambda r: r["brion_terms"][0]["numerator"][0].__setitem__(1, 2),
    lambda r: r["brion_terms"][1]["denominator_factors"].__setitem__(0, [-1, -1]),
    lambda r: r.__setitem__("identity_holds", False),
    lambda r: r["corollaries"]["reduced_euler"].__setitem__("holds", False),
    lambda r: r.__setitem__("region", [[0, 1], [0, 1]]),
])
def test_readme_fan_wrong_answers_rejected(mutate):
    report = readme_report()
    mutate(report)
    assert checks.check_fan_brion(README_FAN, report) is not None


@pytest.mark.parametrize("n,k,count", [(2, 1, 4), (3, 3, 64)])
def test_box_polytopes_pass(n, k, count):
    assert len(checks.lattice_points(box_spec(n, k)["polytope"])) == count
    assert checks.check_polytope(box_spec(n, k), box_polytope_report(n, k)) is None


def test_wrong_polytope_answers_rejected():
    # The cube [0,3]^3's answer is not the answer for [0,2]^3.
    assert checks.check_polytope(box_spec(3, 2), box_polytope_report(3, 3)) is not None
    # A lattice point missing from chi and the table, Brion terms intact.
    report = box_polytope_report(2, 1)
    report["chi_polynomial"].pop()
    report["table"].pop()
    assert checks.check_polytope(box_spec(2, 1), report) is not None
    # A wrong Brion term alone is caught by exact evaluation.
    report = box_polytope_report(2, 1)
    report["brion_terms"][3]["numerator"] = [[[2, 2], 1]]
    assert "Brion terms" in checks.check_polytope(box_spec(2, 1), report)


def test_facets_of_cross_polytope():
    verts = [v for v in product((-1, 0, 1), repeat=3) if sum(map(abs, v)) == 1]
    normals = {u for u, _ in checks.facets(verts)}
    assert normals == set(product((-1, 1), repeat=3))
    assert len(checks.lattice_points(verts)) == 7


def test_program_reports_pass_the_checkers(tmp_path):
    """The package's own output for the hand-worked cases passes."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    cli = pytest.importorskip("toricgf.cli")
    cases = [(Operation("readme", "fan", ("brion",), README_FAN), README_CHI),
             (Operation("square", "polytope", ("polytope",), box_spec(2, 1)), None)]
    for op, chi in cases:
        path = tmp_path / f"{op.label}.spec"
        path.write_text(workloads.spec_text(op.spec))
        buf = io.BytesIO()
        with redirect_stdout(io.TextIOWrapper(buf)) as out:
            assert cli.main([op.argv[0], str(path), "--format", "machine"]) == 0
            out.flush()
        report = json.loads(buf.getvalue())
        assert checks.check(op, report) is None
        if chi is not None:
            assert sorted(report["chi_polynomial"]) == sorted(chi)
