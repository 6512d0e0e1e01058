"""Independent checks of the CLI's machine reports.

Each check reads only the spec the benchmark generated and the report the
program printed; nothing here imports the program.  A check returns None
when the report is right and a one-line reason when it is not.

- Signed count: on a simplicial fan, the Euler characteristic at degree b
  is the sum over all faces tau (the zero cone included) of
  (-1)^codim(tau) times [<b, r> + h(r) >= 0 for every ray r of tau].
- Exact evaluation: the reported Brion terms, summed with Fractions at fixed
  rational points, equal the Euler characteristic polynomial there.  The
  points use a distinct prime per coordinate, so no denominator vanishes.
- Polytopes: the polynomial is the sum of x^m over the lattice points of P,
  found by a scan against facets computed here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

# Prime-power coordinates: x^g == 1 only for g == 0.
EVAL_POINTS = {
    2: ((Fraction(2), Fraction(3)), (Fraction(1, 5), Fraction(7, 11))),
    3: ((Fraction(2), Fraction(3), Fraction(5)),
        (Fraction(1, 7), Fraction(11), Fraction(13, 17))),
}


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def _det(m):
    """Determinant by Laplace expansion; the matrices here are at most 3x3."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _box_points(box):
    return product(*(range(lo, hi + 1) for lo, hi in box))


def _shell_points(box):
    grown = [(lo - 1, hi + 1) for lo, hi in box]
    for pt in _box_points(grown):
        if any(x in (lo, hi) for x, (lo, hi) in zip(pt, grown)):
            yield pt


def _alternating(dims):
    return sum((-1) ** k * d for k, d in enumerate(dims))


def signed_counter(spec):
    """Map a degree to the signed face count of a simplicial fan spec."""
    n = spec["dim"]
    rays = [tuple(r) for r in spec["rays"]]
    h = spec["support"]
    faces = set()
    for cone in spec["maximal_cones"]:
        if len(cone) != n:
            raise ValueError(f"maximal cone {cone} is not simplicial")
        for k in range(n + 1):
            faces.update(combinations(sorted(cone), k))
    weights = {}
    for face in faces:
        mask = sum(1 << i for i in face)
        weights[mask] = (-1) ** (n - len(face))

    def count(b):
        on = 0
        for i, r in enumerate(rays):
            if _dot(b, r) + h[i] >= 0:
                on |= 1 << i
        return sum(w for mask, w in weights.items() if mask & on == mask)

    return count


def _monomial(point, e, cache):
    out = Fraction(1)
    for i, k in enumerate(e):
        key = (i, k)
        v = cache.get(key)
        if v is None:
            v = point[i] ** k
            cache[key] = v
        out *= v
    return out


def _eval_poly(terms, point, cache):
    return sum((c * _monomial(point, e, cache) for e, c in terms), Fraction(0))


def check_brion_terms(report, n):
    """Exact evaluation of the sum of the Brion terms against chi."""
    for point in EVAL_POINTS[n]:
        cache = {}
        total = Fraction(0)
        for term in report["brion_terms"]:
            den = Fraction(1)
            for g in term["denominator_factors"]:
                den *= 1 - _monomial(point, g, cache)
            total += _eval_poly(term["numerator"], point, cache) / den
        chi = _eval_poly(report["chi_polynomial"], point, cache)
        if total != chi:
            return f"Brion terms sum to {total} at {point}, chi gives {chi}"
    return None


def _check_verdicts(report):
    if report.get("identity_holds") is not True:
        return "identity_holds is not true"
    for name, res in sorted((report.get("corollaries") or {}).items()):
        if res.get("holds") is not True:
            return f"corollary {name} does not hold: {res.get('witness')}"
    if not report.get("corollaries"):
        return "no corollaries reported"
    return None


def _check_table_rows(report):
    for row in report["table"]:
        if row["chi"] != _alternating(row["dims"]):
            return f"row {row['degree']}: chi {row['chi']} is not the alternating sum"
    return None


def _first(*reasons):
    for r in reasons:
        if r:
            return r
    return None


def check_fan_brion(spec, report):
    """A ``brion`` report on a simplicial fan spec."""
    n = spec["dim"]
    if report.get("command") != "brion":
        return f"command is {report.get('command')!r}"
    fan = report["fan"]
    if fan["rays"] != spec["rays"] or not fan["complete"]:
        return "fan summary does not match the spec"
    if fan["num_maximal"] != len(spec["maximal_cones"]):
        return f"{fan['num_maximal']} maximal cones reported"
    if report["support_values"] != spec["support"]:
        return "support values do not match the spec"
    reason = _first(_check_verdicts(report), _check_table_rows(report))
    if reason:
        return reason
    box = [tuple(b) for b in report["region"]]
    chi = {tuple(e): c for e, c in report["chi_polynomial"]}
    count = signed_counter(spec)
    for b in list(_box_points(box)) + list(_shell_points(box)):
        if count(b) != chi.get(b, 0):
            return f"signed count {count(b)} at {b}, chi coefficient {chi.get(b, 0)}"
    if any(not all(lo <= x <= hi for x, (lo, hi) in zip(e, box)) for e in chi):
        return "chi has a term outside the degree region"
    rows = {tuple(row["degree"]): row["chi"] for row in report["table"]}
    if any(rows.get(e) != c for e, c in chi.items()):
        return "table rows disagree with the chi polynomial"
    if len(report["brion_terms"]) != len(spec["maximal_cones"]):
        return f"{len(report['brion_terms'])} Brion terms reported"
    return check_brion_terms(report, n)


def check_query(spec, report, degree, p):
    """A single-degree ``cohomology`` report on a simplicial fan spec."""
    n = spec["dim"]
    field = "rational" if p is None else f"modp:{p}"
    if report.get("command") != "cohomology" or report["coefficient_field"] != field:
        return "command or coefficient field does not match the query"
    if report["fan"]["rays"] != spec["rays"] or not report["fan"]["complete"]:
        return "fan summary does not match the spec"
    table = report["table"]
    if len(table) != 1 or tuple(table[0]["degree"]) != tuple(degree):
        return f"expected one row at {list(degree)}"
    row = table[0]
    if len(row["dims"]) != n + 1:
        return f"{len(row['dims'])} cohomology dimensions reported"
    expect = signed_counter(spec)(tuple(degree))
    if _alternating(row["dims"]) != expect or row["chi"] != expect:
        return (f"alternating sum {_alternating(row['dims'])} and chi {row['chi']},"
                f" signed count {expect}")
    return None


def facets(vertices):
    """Inner facet normals (primitive) and offsets: P = {x : <u,x> >= c}."""
    n = len(vertices[0])
    out = set()
    for subset in combinations(vertices, n):
        base = subset[0]
        diffs = [[a - b for a, b in zip(v, base)] for v in subset[1:]]
        normal = [(-1) ** i * _det([d[:i] + d[i + 1:] for d in diffs])
                  for i in range(n)]
        if not any(normal):
            continue
        u = _primitive(normal)
        values = [_dot(u, v) for v in vertices]
        c = _dot(u, base)
        if all(x >= c for x in values):
            out.add((u, c))
        elif all(x <= c for x in values):
            out.add((tuple(-x for x in u), -c))
    return sorted(out)


def lattice_points(vertices):
    hs = facets(vertices)
    box = [(min(v[i] for v in vertices), max(v[i] for v in vertices))
           for i in range(len(vertices[0]))]
    return {pt for pt in _box_points(box) if all(_dot(u, pt) >= c for u, c in hs)}


def check_polytope(spec, report):
    """A ``polytope`` report against a lattice-point scan of the spec."""
    verts = [tuple(v) for v in spec["polytope"]]
    n = spec["dim"]
    if report.get("command") != "polytope":
        return f"command is {report.get('command')!r}"
    fan = report["fan"]
    hs = facets(verts)
    normals = sorted(u for u, _ in hs)
    if sorted(tuple(r) for r in fan["rays"]) != normals or not fan["complete"]:
        return "normal fan rays are not the inner facet normals"
    expect_h = {u: -c for u, c in hs}
    got_h = {tuple(r): v for r, v in zip(fan["rays"], report["support_values"])}
    if got_h != expect_h:
        return "support values are not -min over the vertices"
    reason = _first(_check_verdicts(report), _check_table_rows(report))
    if reason:
        return reason
    points = lattice_points(verts)
    chi = {tuple(e): c for e, c in report["chi_polynomial"]}
    if set(chi) != points or any(c != 1 for c in chi.values()):
        return (f"chi has {len(chi)} terms, P has {len(points)} lattice points"
                " (or a coefficient is not 1)")
    h0 = (1,) + (0,) * n
    if {tuple(row["degree"]) for row in report["table"]} != points or any(
            tuple(row["dims"]) != h0 for row in report["table"]):
        return "table is not H^0 = 1 exactly at the lattice points"
    if len(report["brion_terms"]) != fan["num_maximal"]:
        return f"{len(report['brion_terms'])} Brion terms reported"
    return check_brion_terms(report, n)


def check(op, report):
    """Dispatch on the operation kind."""
    if op.kind == "fan":
        return check_fan_brion(op.spec, report)
    if op.kind == "polytope":
        return check_polytope(op.spec, report)
    return check_query(op.spec, report, op.degree, op.p)
