"""Acceptance suite: one test per criterion, each printing a PASS line.

All equalities are exact; no tolerances appear anywhere.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import time
from itertools import product

import pytest

from toricgf import (
    LaurentPolynomial,
    cell_complex,
    chain_complex,
    chi_polynomial,
    cohomology_table,
    cone_genfun,
    degree_region,
    dual_cone,
    expand_in_box,
    graded_cohomology,
    lattice_polytope,
    normal_fan_of_polytope,
    signed_count,
    support_from_ray_values,
    support_subcomplex,
    truncated_series,
    verify_identity,
)
from toricgf.cohomology import check_shell
from toricgf.intlinalg import dot

from conftest import (
    example1_fan,
    example1_support,
    octahedron_fan,
    p2_fan,
    random_battery,
    random_fan_3d,
    total_dims,
)
from reference import is_zero_matrix, matmul

EX1_CHI = LaurentPolynomial(2, {(0, -1): 1, (0, 0): -1, (-1, 1): -1,
                                (0, 1): -1, (1, 1): -1})


def _poly_of_points(dim, points):
    return LaurentPolynomial(dim, {tuple(p): 1 for p in points})


def _scan(box, member):
    return [p for p in product(*(range(lo, hi + 1) for lo, hi in box)) if member(p)]


# ----------------------------------------------------------------------
# Criterion 5/6/7 share one deterministic battery of random cases.

@pytest.fixture(scope="module")
def battery():
    return random_battery()


def test_criterion_1_example_reproduction():
    start = time.monotonic()
    h = example1_support()
    assert chi_polynomial(h) == EX1_CHI
    table = cohomology_table(h)
    assert all(dims[0] == 0 for dims, _, _ in table.entries.values())
    h1_degrees = {deg for deg, (dims, _, _) in table.entries.items() if dims[1]}
    assert h1_degrees == {(0, 0), (-1, 1), (0, 1), (1, 1)}
    assert all(table.entries[d][0][1] == 1 for d in h1_degrees)
    h2_degrees = {deg for deg, (dims, _, _) in table.entries.items() if dims[2]}
    assert h2_degrees == {(0, -1)}
    assert table.entries[(0, -1)][0][2] == 1
    report = verify_identity(h)
    assert report.identity_holds
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (worked example reproduction): PASS  [{elapsed:.2f}s]")


def test_criterion_2_lattice_polytopes():
    start = time.monotonic()
    fixtures = [
        (1, [[0], [2]], lambda p: 0 <= p[0] <= 2),
        (2, [[0, 0], [1, 0], [0, 1], [1, 1]],
         lambda p: 0 <= p[0] <= 1 and 0 <= p[1] <= 1),
        (2, [[0, 0], [3, 0], [0, 3]],
         lambda p: p[0] >= 0 and p[1] >= 0 and p[0] + p[1] <= 3),
        (3, list(product([0, 1], repeat=3)),
         lambda p: all(0 <= x <= 1 for x in p)),
    ]
    for dim, verts, member in fixtures:
        fan, h = normal_fan_of_polytope(lattice_polytope(dim, verts))
        points = _scan(tuple((-5, 5) for _ in range(dim)), member)
        assert chi_polynomial(h) == _poly_of_points(dim, points)
        table = cohomology_table(h)
        assert set(table.entries) == {tuple(p) for p in points}
        for dims, _, _ in table.entries.values():
            assert dims[0] == 1 and all(d == 0 for d in dims[1:])
        assert verify_identity(h).identity_holds
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2 (lattice polytope enumeration): PASS  [{elapsed:.2f}s]")


def test_criterion_3_serre_dual():
    fixtures = [
        (2, [[0, 0], [2, 0], [0, 2], [2, 2]],
         lambda p: -2 < p[0] < 0 and -2 < p[1] < 0),
        (2, [[0, 0], [3, 0], [0, 3]],
         lambda p: p[0] < 0 and p[1] < 0 and p[0] + p[1] > -3),
    ]
    for dim, verts, interior_of_minus_k in fixtures:
        fan, hk = normal_fan_of_polytope(lattice_polytope(dim, verts))
        h = support_from_ray_values(fan, [-hk.value(r) for r in fan.input_rays])
        interior = _scan(tuple((-5, 5) for _ in range(dim)), interior_of_minus_k)
        table = cohomology_table(h)
        assert set(table.entries) == {tuple(p) for p in interior}
        for dims, _, chi in table.entries.values():
            assert dims[dim] == 1 and all(d == 0 for d in dims[:dim])
            assert chi == (-1) ** dim
        expected = LaurentPolynomial(dim, {tuple(p): (-1) ** dim for p in interior})
        assert chi_polynomial(h) == expected
        assert verify_identity(h).identity_holds
    print("ACCEPTANCE 3 (top cohomology at interior points): PASS")


def test_criterion_4_monomial_case():
    # A globally linear support function has a single unit coefficient: with
    # linear part m on every cone the polynomial is exactly x^(-m).  The
    # monomial identity for x^a is this statement at m = -a.
    fans = [example1_fan(), p2_fan(), octahedron_fan(),
            random_fan_3d(random.Random(5), 2)]
    degrees_2d = [(0, 0), (1, 0), (-2, 3), (4, 4)]
    degrees_3d = [(0, 0, 0), (1, -2, 3), (-1, -1, 2)]
    for fan in fans:
        degrees = degrees_2d if fan.ambient_dim == 2 else degrees_3d
        for a in degrees:
            values = [-dot(a, r) for r in fan.input_rays]
            h = support_from_ray_values(fan, values)
            assert chi_polynomial(h) == LaurentPolynomial.monomial(a)
            assert verify_identity(h).identity_holds
            # and with the linear part itself equal to a the monomial is x^-a
            h2 = support_from_ray_values(fan, [dot(a, r) for r in fan.input_rays])
            neg = tuple(-x for x in a)
            assert chi_polynomial(h2) == LaurentPolynomial.monomial(neg)
    print("ACCEPTANCE 4 (globally linear monomial case): PASS")


def test_criterion_5_randomized_properties(battery):
    start = time.monotonic()
    assert len(battery) >= 200
    seen_dims = set()
    for fan, h in battery:
        n = fan.ambient_dim
        seen_dims.add(n)
        cc = cell_complex(fan)
        # (a) boundary of boundary vanishes on the full complex (and every
        # subcomplex built below asserts the same internally)
        full = chain_complex(cc, frozenset(
            i for i, c in enumerate(fan.cones) if c.dim > 0))
        for d in range(0, n - 1):
            lo, hi = full.boundaries[d], full.boundaries[d + 1]
            if lo and hi and lo[0] and hi[0]:
                assert is_zero_matrix(matmul(lo, hi))
        report = verify_identity(h)
        candidates = report.region.candidates
        chi = report.chi_polynomial
        for b in candidates:
            dims, _ = graded_cohomology(h, b)
            # (b) signed count equals the homological Euler characteristic
            assert signed_count(h, b) == sum(
                (-1) ** k * dims[k] for k in range(n + 1))
            # (d) top cohomology formula and its vanishing consequence
            empty = not support_subcomplex(h, b)
            assert dims[n] == (1 if empty else 0)
            if empty:
                assert all(x == 0 for x in dims[:n])
        # (c) H^0 / H^n exclusivity over the whole table
        table = cohomology_table(h)
        totals = total_dims(table)
        assert totals[0] * totals[n] == 0
        # (e) covered by the reduced Euler corollary, (f) the identity
        assert report.corollary_results["reduced_euler"].holds
        assert report.corollary_results["top_cohomology"].holds
        assert report.corollary_results["h0_hn_exclusive"].holds
        assert report.identity_holds
    assert seen_dims == {2, 3}
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 5 (randomized properties, {len(battery)} cases): PASS  "
          f"[{elapsed:.2f}s]")


def _fixture_supports():
    """Support functions used by criteria 1-4."""
    out = [example1_support()]
    for dim, verts in [(1, [[0], [2]]),
                       (2, [[0, 0], [1, 0], [0, 1], [1, 1]]),
                       (2, [[0, 0], [3, 0], [0, 3]]),
                       (3, list(product([0, 1], repeat=3)))]:
        fan, h = normal_fan_of_polytope(lattice_polytope(dim, verts))
        out.append(h)
    for dim, verts in [(2, [[0, 0], [2, 0], [0, 2], [2, 2]]),
                       (2, [[0, 0], [3, 0], [0, 3]])]:
        fan, hk = normal_fan_of_polytope(lattice_polytope(dim, verts))
        out.append(support_from_ray_values(
            fan, [-hk.value(r) for r in fan.input_rays]))
    for fan in [example1_fan(), p2_fan(), octahedron_fan()]:
        a = (1, -2) if fan.ambient_dim == 2 else (1, -2, 3)
        out.append(support_from_ray_values(
            fan, [-dot(a, r) for r in fan.input_rays]))
    # non-simplicial maximal cones: duals triangulate into several pieces
    fan, h = normal_fan_of_polytope(lattice_polytope(
        3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]))
    out.append(h)
    return out


def test_criterion_6_series_oracle(battery):
    rng = random.Random(99)
    checked = 0
    for h in _fixture_supports() + [h for _, h in battery]:
        fan = h.fan
        n = fan.ambient_dim
        lo = [rng.randint(-4, 0) for _ in range(n)]
        box = tuple((l, l + 5) for l in lo)  # side 6
        for i in fan.maximal_ids:
            shift = tuple(-x for x in h.linear_part(i))
            cone = dual_cone(fan.cones[i])
            gf = cone_genfun(shift, cone)
            assert expand_in_box(gf, box) == truncated_series(shift, cone, box)
            checked += 1
    print(f"ACCEPTANCE 6 (series vs membership oracle, {checked} cone "
          f"generating functions): PASS")


def test_criterion_7_shell_check(battery):
    checked = 0
    for h in _fixture_supports() + [h for _, h in battery]:
        region = degree_region(h)
        check_shell(h, region.box)  # raises on any nonzero signed count
        checked += 1
    print(f"ACCEPTANCE 7 (zero signed counts on region shells, {checked} "
          f"cases): PASS")
