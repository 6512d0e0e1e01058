import random
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from toricgf import (
    DegeneratePolytope,
    FanAxiomViolation,
    NonPointedCone,
    NotIntegral,
    NotLinearOnCone,
    build_fan,
    check_complete,
    cone_from_rays,
    dual_cone,
    face_lattice,
    lattice_polytope,
    normal_fan_of_polytope,
    support_from_ray_values,
)
from toricgf.intlinalg import InternalCheckFailed, dot, primitive_vector, rank

from conftest import (POLYTOPES, cone_collections, cross_polytope_fan_data,
                      double_hull_meets_in_faces, example1_fan, fan3d_brion_pool,
                      lattice_polygon_cone, octahedron_fan, octahedron_fan_data,
                      per_pair_check_intersections, primitive_edges, random_fan_2d,
                      random_fan_3d, unit_square)
from reference import hulled_lattice_polytope, normal_cone, rehulled_normal_fan


def test_cone_from_rays_basic():
    c = cone_from_rays(2, [(1, 1), (0, 1)])
    assert c.dim == 2
    assert c.pointed
    assert set(c.rays) == {(1, 1), (0, 1)}


def test_cone_from_rays_zero_cone():
    c = cone_from_rays(2, [])
    assert c.dim == 0
    assert c.rays == ()
    assert c.pointed
    assert c.contains((0, 0))
    assert not c.contains((1, 0))


def test_cone_from_rays_line():
    c = cone_from_rays(2, [(1, 0), (-1, 0)])
    assert not c.pointed
    assert c.dim == 1
    assert c.contains((5, 0)) and c.contains((-5, 0))
    assert not c.contains((0, 1))
    with pytest.raises(NonPointedCone):
        cone_from_rays(2, [(1, 0), (-1, 0)], require_pointed=True)


def test_cone_reduces_redundant_generators():
    c = cone_from_rays(2, [(1, 0), (1, 1), (0, 1), (2, 4)])
    assert set(c.rays) == {(1, 0), (0, 1)}


def test_dual_cone_worked_example():
    c = cone_from_rays(2, [(1, 1), (0, 1)])
    d = dual_cone(c)
    assert set(d.rays) == {(1, 0), (-1, 1)}


def test_dual_cone_zero_is_whole_space():
    d = dual_cone(cone_from_rays(2, []))
    assert not d.pointed
    assert d.dim == 2
    assert d.inequalities == ()
    assert d.contains((-7, 3))
    # and back again
    assert dual_cone(d).rays == ()


def test_dual_cone_orthant_self_dual():
    c = cone_from_rays(2, [(1, 0), (0, 1)])
    assert set(dual_cone(c).rays) == {(1, 0), (0, 1)}


def test_dual_dual_identity_random():
    rng = random.Random(2)
    for _ in range(90):
        n = rng.choice([2, 3, 4])
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n + rng.randint(0, 2))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        c = cone_from_rays(n, gens)
        if not (c.pointed and c.dim == n):
            continue
        dd = dual_cone(dual_cone(c))
        assert dd.rays == c.rays


def test_membership_agrees_with_generator_combinations():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.choice([2, 3])
        gens = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        c = cone_from_rays(n, gens)
        coeffs = [rng.randint(0, 4) for _ in c.rays]
        pt = tuple(sum(k * r[i] for k, r in zip(coeffs, c.rays)) for i in range(n))
        assert c.contains(pt)


def test_simplicial_membership_against_exact_solve():
    # For simplicial cones the inequality test must match solving for the
    # nonnegative coordinates directly.
    from fractions import Fraction

    rng = random.Random(9)
    for _ in range(80):
        g1 = (rng.randint(-3, 3), rng.randint(-3, 3))
        g2 = (rng.randint(-3, 3), rng.randint(-3, 3))
        det = g1[0] * g2[1] - g1[1] * g2[0]
        if det == 0 or not any(g1) or not any(g2):
            continue
        c = cone_from_rays(2, [g1, g2])
        pt = (rng.randint(-5, 5), rng.randint(-5, 5))
        lam1 = Fraction(pt[0] * g2[1] - pt[1] * g2[0], det)
        lam2 = Fraction(g1[0] * pt[1] - g1[1] * pt[0], det)
        assert c.contains(pt) == (lam1 >= 0 and lam2 >= 0)


def test_face_lattice_2d():
    c = cone_from_rays(2, [(1, 1), (0, 1)])
    faces = face_lattice(c)
    assert len(faces) == 4
    assert sorted(d for _, d in faces) == [0, 1, 1, 2]


def test_face_lattice_ray():
    c = cone_from_rays(2, [(1, 0)])
    faces = face_lattice(c)
    assert len(faces) == 2


def test_face_lattice_3d_simplicial():
    c = cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    faces = face_lattice(c)
    assert len(faces) == 8
    by_dim = {}
    for f, d in faces:
        by_dim[d] = by_dim.get(d, 0) + 1
    assert by_dim == {0: 1, 1: 3, 2: 3, 3: 1}
    # each face really is cut out by a supporting hyperplane
    for f, d in faces:
        for r in f.rays:
            assert c.contains(r)


def test_face_lattice_nonsimplicial():
    # cone over a square: 4 rays, 4 facets
    c = cone_from_rays(3, [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)])
    faces = face_lattice(c)
    by_dim = {}
    for f, d in faces:
        by_dim[d] = by_dim.get(d, 0) + 1
    assert by_dim == {0: 1, 1: 4, 2: 4, 3: 1}


def random_pointed_cone(rng, n, d):
    """Cone over random generators with a positive first coordinate in Z^d,
    carried into Z^n by a random integer matrix of rank d; pointed, of
    dimension at most d."""
    while True:
        emb = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
        if rank(emb) == d:
            break
    gens = [(rng.randint(1, 3),) + tuple(rng.randint(-3, 3) for _ in range(d - 1))
            for _ in range(rng.randint(d, d + 5))]
    gens = [tuple(dot(row, g) for row in emb) for g in gens]
    return gens, cone_from_rays(n, gens)


def random_pointed_cones():
    rng = random.Random(31)
    for n in (2, 3, 4):
        for d in range(1, n + 1):
            for _ in range(25):
                yield random_pointed_cone(rng, n, d)


def facet_normals(c):
    """The inequalities that are not one half of a span equation pair."""
    return [u for u in c.inequalities if tuple(-x for x in u) not in c.inequalities]


def brute_force_face_sets(c):
    """Rays tight on every facet of a subset, over all subsets of facets."""
    facets = facet_normals(c)
    return {frozenset(g for g in c.rays if all(dot(u, g) == 0 for u in subset))
            for k in range(len(facets) + 1) for subset in combinations(facets, k)}


def test_face_lattice_matches_facet_subset_enumeration():
    checked = 0
    for _, c in random_pointed_cones():
        assert c.pointed
        if len(facet_normals(c)) > 10:
            continue
        faces = face_lattice(c)
        assert {frozenset(f.rays) for f, _ in faces} == brute_force_face_sets(c)
        assert len(faces) == len({frozenset(f.rays) for f, _ in faces})
        assert all(f.dim == d for f, d in faces)
        checked += 1
    assert checked >= 200


def test_facet_normals_are_primitive_valid_and_tight_on_a_ridge():
    for gens, c in random_pointed_cones():
        facets = facet_normals(c)
        assert facets
        for u in facets:
            assert primitive_vector(u) == u
            assert all(dot(u, g) >= 0 for g in gens)
            tight = [g for g in c.rays if dot(u, g) == 0]
            assert rank(tight) == c.dim - 1


def test_face_lattice_of_a_cone_over_a_20_gon_is_fast():
    c = lattice_polygon_cone(primitive_edges(3) + [(1, 3), (-3, 1), (-1, -3), (3, -1)])
    assert len(c.rays) == 20
    start = time.perf_counter()
    faces = face_lattice(c)
    elapsed = time.perf_counter() - start
    assert sorted(d for _, d in faces) == [0] + [1] * 20 + [2] * 20 + [3]
    assert elapsed < 1.0


def test_build_fan_example1():
    fan = example1_fan()
    assert len(fan.maximal_ids) == 4
    assert len(fan.ray_ids) == 4
    assert len(fan.cones) == 9
    assert fan.cones[fan.zero_id].dim == 0


def test_build_fan_incomplete_orthant():
    fan = build_fan(2, [[1, 0], [0, 1]], [[0, 1]])
    assert len(fan.cones) == 4
    report = check_complete(fan)
    assert not report.complete
    assert report.witness


def test_build_fan_overlapping_cones_rejected():
    with pytest.raises(FanAxiomViolation):
        build_fan(2, [[1, 0], [1, 1], [0, 1]], [[0, 1], [0, 2]])


def test_build_fan_rejects_redundant_listed_ray():
    # (1,1) is interior to the first quadrant cone, so no support value on
    # it could ever be enforced
    with pytest.raises(ValueError):
        build_fan(2, [[1, 0], [1, 1], [0, 1], [-1, -1]],
                  [[0, 1, 2], [2, 3], [3, 0]])


@pytest.mark.parametrize("records, maximal, repeated", [
    (True, [[0, 1], [1, 0], [1, 2], [2, 3], [3, 0]], "cone[(0, 1), (1, 0)]"),
    (False, [[0, 1], [1, 2], [2, 3], [3, 0], [2, 1]], "cone[(-1, 0), (0, 1)]"),
], ids=["record", "general"])
def test_build_fan_rejects_a_maximal_cone_listed_twice(records, maximal, repeated,
                                                       monkeypatch):
    # Cones are keyed by ray mask, so a repeat would be kept once and the
    # fan taken as complete; the error names the repeated cone.
    import toricgf.polyhedral as polyhedral

    if not records:
        monkeypatch.setattr(polyhedral, "_simplex", lambda *args: None)
    with pytest.raises(ValueError, match=re.escape(f"maximal cone {repeated} is listed twice")):
        build_fan(2, [[1, 0], [0, 1], [-1, 0], [0, -1]], maximal)


def test_build_fan_rejects_line():
    with pytest.raises(NonPointedCone):
        build_fan(2, [[1, 0], [-1, 0]], [[0, 1]])


def test_build_fan_builds_each_cone_once(monkeypatch):
    import toricgf.polyhedral as polyhedral
    from conftest import random_fan_3d

    pyramid = build_fan(3, [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1), (0, 0, -1)],
                        [[0, 1, 2, 3], [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    fans = [octahedron_fan(), pyramid] + [random_fan_3d(random.Random(seed), 6)
                                          for seed in range(4)]
    real = polyhedral._face
    built = []

    def counted(ambient_dim, ray_set):
        built.append(frozenset(ray_set))
        return real(ambient_dim, ray_set)

    # The pairwise intersection check hulls pairs of its own.  At build time
    # only the listed cones that are not n independent rays take the face
    # route, through cone_from_rays; the others are read off their records.
    # Every other face is its ray set and rank, hulled by the first read of
    # its inequalities and never again.
    monkeypatch.setattr(polyhedral, "_check_intersections", lambda *args: None)
    monkeypatch.setattr(polyhedral, "_face", counted)
    for fan in fans:
        rays = fan.input_rays
        maximal = [[rays.index(r) for r in fan.cones[i].rays] for i in fan.maximal_ids]
        built.clear()
        again = polyhedral.build_fan(3, rays, maximal)
        listed = Counter(frozenset(again.cones[i].rays) for i in again.maximal_ids)
        assert Counter(built) == Counter(frozenset(again.cones[i].rays)
                                         for i in again.maximal_ids if i not in again.simplices)
        assert again.cones == fan.cones
        assert again.face_relation == fan.face_relation
        for c in again.cones:
            if frozenset(c.rays) in listed:
                continue
            built.clear()
            first = c.inequalities
            assert built == [frozenset(c.rays)]
            assert c.inequalities == first
            assert built == [frozenset(c.rays)]
            assert first == real(3, c.rays).inequalities


PYRAMID = ([(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1), (0, 0, -1)],
           [[0, 1, 2, 3], [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])


def test_build_fan_ranks_a_face_only_in_its_hull(monkeypatch):
    # A simplicial listed cone costs no elimination: its hull is read off
    # cross products, its faces are its ray subsets.  Any other listed cone
    # costs one Smith form for its hull, one rank for pointedness and one per
    # generator for its extreme rays, and each of its nonzero faces that is
    # no face of a simplicial listed cone one rank for its dimension.
    import toricgf.polyhedral as polyhedral

    ranks = []
    for name in ("rank", "smith_normal_form"):
        real = getattr(polyhedral, name)
        monkeypatch.setattr(polyhedral, name,
                            lambda rows, real=real: ranks.append(rows) or real(rows))
    monkeypatch.setattr(polyhedral, "_check_intersections", lambda *args: None)
    data = [octahedron_fan_data(), PYRAMID]
    data += [cross_polytope_fan_data(random.Random(seed), 4, seed) for seed in range(3)]
    for seed in range(3):
        fan = random_fan_3d(random.Random(seed), 12)
        data.append((fan.input_rays, [[fan.input_rays.index(r) for r in fan.cones[i].rays]
                                      for i in fan.maximal_ids]))
    for rays, maximal in data:
        ranks.clear()
        n = len(rays[0])
        fan = polyhedral.build_fan(n, rays, maximal)
        listed = sum(2 + len(cone) for cone in maximal if len(cone) > n)
        read_off = {frozenset(sub) for cone in maximal if len(cone) == n for k in range(n)
                    for sub in combinations([fan.input_rays[i] for i in cone], k)}
        read_off |= {frozenset(fan.input_rays[i] for i in cone) for cone in maximal}
        ranked = [c for c in fan.cones if c.rays and frozenset(c.rays) not in read_off]
        assert len(ranks) == listed + len(ranked)


def test_support_solves_only_the_maximal_cones(monkeypatch):
    # Every other cone inherits a parent's linear part; only the maximal
    # cones, the polytopes' normal fans' included, get a functional, and
    # only those that are not n independent rays solve a system: the others
    # read theirs off their records.
    import toricgf.polyhedral as polyhedral

    real = polyhedral.solve_integral
    solved = []

    def counted(a, b):
        solved.append(b)
        return real(a, b)

    def general(fan):
        return len([i for i in fan.maximal_ids if i not in fan.simplices])

    monkeypatch.setattr(polyhedral, "solve_integral", counted)
    rng = random.Random(31)
    cases = [(octahedron_fan(), [1, -1, 0, 2, 0, 1]),
             (build_fan(3, *PYRAMID), [1, 1, 1, 1, 0])]
    for seed in range(4):
        fan = random_fan_3d(random.Random(seed), 12)
        cases.append((fan, [rng.randint(-2, 2) for _ in fan.input_rays]))
    for fan, values in cases:
        solved.clear()
        support_from_ray_values(fan, values)
        assert len(solved) == general(fan)
    assert general(cases[0][0]) == 0 and general(cases[1][0]) == 1
    solves = []
    for _, dim, verts in POLYTOPES:
        solved.clear()
        fan, _ = normal_fan_of_polytope(lattice_polytope(dim, verts))
        assert len(solved) == general(fan)
        solves.append(len(solved))
    assert 0 in solves and max(solves) > 0


def test_a_pool_fan_crosses_each_ridge_once(monkeypatch):
    # A ridge's cross product is made once, when the first listed cone on it
    # is read, and shared with the cone across it; the pair check's hulls
    # are not counted.
    import toricgf.polyhedral as polyhedral

    real_cross, real_hull = polyhedral.cross_product, polyhedral._hull_description
    crossed, hulling = [], []

    def counted(rows):
        if not hulling:
            crossed.append(frozenset(map(tuple, rows)))
        return real_cross(rows)

    def hull(gens, n):
        hulling.append(gens)
        try:
            return real_hull(gens, n)
        finally:
            hulling.pop()

    monkeypatch.setattr(polyhedral, "cross_product", counted)
    monkeypatch.setattr(polyhedral, "_hull_description", hull)
    for fan in fan3d_brion_pool():
        crossed.clear()
        again = polyhedral.build_fan(3, fan.input_rays, [
            [fan.input_rays.index(r) for r in fan.cones[i].rays] for i in fan.maximal_ids])
        ridge_sets = [frozenset(c.rays) for c in again.cones if c.dim == 2]
        assert Counter(crossed) == Counter(ridge_sets)
        # Each maximal cone has three ridges, each ridge two maximal cones:
        # 42 cone-ridge incidences over 21 ridges on a fan of depth 3.
        assert 3 * len(again.simplices) == 3 * len(again.maximal_ids) == 2 * len(ridge_sets)


@pytest.mark.parametrize("solver, make_fan, values", [
    ("cramer", octahedron_fan, [1, -1, 0, 2, 0, 1]),
    ("solve_integral", lambda: build_fan(3, *PYRAMID), [1, 1, 1, 1, 0]),
], ids=["record", "general"])
def test_support_check_catches_a_wrong_functional(solver, make_fan, values, monkeypatch):
    # The first maximal cone solved, a simplicial one read off its record or
    # the pyramid's square cone solved as a system, gets a functional off by
    # one: its dots with the cone's rays miss the ray values.
    import toricgf.polyhedral as polyhedral

    fan = make_fan()
    real, calls = getattr(polyhedral, solver), []

    def wrong(*args):
        h = real(*args)
        calls.append(h)
        return (h[0] + 1, *h[1:]) if len(calls) == 1 else h

    monkeypatch.setattr(polyhedral, solver, wrong)
    with pytest.raises(InternalCheckFailed, match=r"linear part \[.*\] of cone .* on ray"):
        support_from_ray_values(fan, values)
    assert len(calls) == 1


def test_support_on_the_pool_runs_no_smith_form(monkeypatch):
    # Every maximal cone of the benchmark's fans is simplicial, so each
    # solve is a square system of nonzero determinant, solved in closed form.
    import toricgf.intlinalg as intlinalg

    real, calls = intlinalg.smith_normal_form, []
    monkeypatch.setattr(intlinalg, "smith_normal_form", lambda a: calls.append(a) or real(a))
    rng = random.Random(16)
    for fan in fan3d_brion_pool():
        support_from_ray_values(fan, [rng.randint(-2, 2) for _ in fan.input_rays])
    assert calls == []


def test_intersection_check_agrees_with_the_double_hull_reference():
    import toricgf.polyhedral as polyhedral

    rng = random.Random(8)
    for n, count, depth in ((2, 60, 6), (3, 25, 4), (4, 5, 2)):
        verdicts = Counter()
        for top in cone_collections(rng, n, count, depth):
            try:
                polyhedral._check_intersections(top)
                valid = True
            except FanAxiomViolation:
                valid = False
            assert valid == double_hull_meets_in_faces(top), top
            verdicts[valid] += 1
        assert verdicts[True] >= count and verdicts[False] >= count, (n, verdicts)


def test_build_fan_rejects_crossing_cones_with_no_ray_inside_the_other():
    # Two triangles of a hexagram, coned from height 1: the cones cross, and
    # no ray of either lies in the other.
    rays = [(2, 0, 1), (-1, 2, 1), (-1, -2, 1), (-2, 0, 1), (1, -2, 1), (1, 2, 1)]
    a = cone_from_rays(3, rays[:3])
    b = cone_from_rays(3, rays[3:])
    assert not any(a.contains(r) for r in b.rays) and not any(b.contains(r) for r in a.rays)
    with pytest.raises(FanAxiomViolation):
        build_fan(3, rays, [[0, 1, 2], [3, 4, 5]])


SQUARE = [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)]
SQUARE_4D = [r + (0,) for r in SQUARE] + [(0, 0, 1, 1), (0, 0, 1, -1), (1, 0, 1, -1)]


@pytest.mark.parametrize("dim, rays, maximal", [
    (3, SQUARE, [[0, 1, 2, 3], [0, 2]]),
    (4, SQUARE_4D, [[0, 1, 2, 3, 4], [0, 2, 5, 6]]),
], ids=["cone-over-a-square", "4d-across-a-square-facet"])
def test_build_fan_rejects_cones_meeting_in_a_diagonal_of_a_square(dim, rays, maximal):
    # The two cones meet in the cone over a diagonal of a square face of the
    # first: its rays are rays of both, but it is not a face of the first.
    # The pair check sees the cones in the listed order; try both.
    for order in (maximal, maximal[::-1]):
        with pytest.raises(FanAxiomViolation):
            build_fan(dim, rays, order)


# The octahedron fan with two barycentric subdivisions drawn by Random(7): a
# benchmark pool fan on which six pairs need the hull.
POOL_FAN7 = (
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1),
     (-1, 1, -1), (1, -1, 1)],
    [[0, 1, 2], [0, 1, 5], [0, 4, 5], [3, 1, 2], [3, 4, 2], [3, 4, 5],
     [6, 1, 5], [6, 3, 5], [6, 3, 1], [7, 4, 2], [7, 0, 2], [7, 0, 4]],
)


@pytest.mark.parametrize("make_fan, hull_count", [
    (lambda: random_fan_3d(random.Random(3), 6), 0),
    (lambda: build_fan(3, *POOL_FAN7), 6),
    (lambda: random_fan_3d(random.Random(1), 12), 18),
], ids=["random-3-depth-6", "pool-fan7-d2", "random-1-depth-12"])
def test_intersection_check_hulls_only_the_pairs_the_listed_normals_miss(
        monkeypatch, make_fan, hull_count):
    import toricgf.polyhedral as polyhedral

    fan = make_fan()
    top = [fan.cones[i] for i in fan.maximal_ids]
    real = polyhedral._hull_description
    hulls = []

    def counted(gens, n):
        hulls.append(gens)
        return real(gens, n)

    def forbidden(*args, **kwargs):
        raise AssertionError("the pair check builds no cone")

    monkeypatch.setattr(polyhedral, "_hull_description", counted)
    monkeypatch.setattr(polyhedral, "dual_cone", forbidden)
    monkeypatch.setattr(polyhedral, "cone_from_rays", forbidden)
    polyhedral._check_intersections(top)
    assert len(hulls) == hull_count


def test_listed_normals_certify_only_pairs_that_meet_in_a_common_face(monkeypatch):
    # Wherever the pair check accepts without a hull, the double-hull
    # reference agrees: every distinct pair of the agreement test's battery.
    import toricgf.polyhedral as polyhedral

    class Fallback(Exception):
        pass

    def fallback(gens, n):
        raise Fallback

    rng = random.Random(8)
    pairs = {}
    for n, count, depth in ((2, 60, 6), (3, 25, 4), (4, 5, 2)):
        for top in cone_collections(rng, n, count, depth):
            pairs.update(((a.rays, b.rays), (a, b)) for a, b in combinations(top, 2))
    cheap = {}
    with monkeypatch.context() as m:
        m.setattr(polyhedral, "_hull_description", fallback)
        for key, pair in pairs.items():
            try:
                polyhedral._check_intersections(list(pair))
                cheap[key] = True
            except Fallback:
                cheap[key] = False
    verdicts = Counter()
    for key, (a, b) in pairs.items():
        valid = double_hull_meets_in_faces([a, b])
        assert valid or not cheap[key], (a, b)
        verdicts[a.ambient_dim, cheap[key], valid] += 1
    # Most valid pairs are certified, and every dimension has violations;
    # in 2-D the listed normals certify every valid pair.
    for n in (2, 3, 4):
        assert verdicts[n, True, True] > verdicts[n, False, True], verdicts
        assert verdicts[n, False, False] > 0, verdicts
    assert verdicts[3, False, True] and verdicts[4, False, True], verdicts


@pytest.mark.parametrize("make_fans, hulled, pairs", [
    (lambda: [random_fan_3d(random.Random(3), 6)], 0, 190),
    (lambda: [random_fan_3d(random.Random(1), 12)], 18, 496),
    (lambda: [random_fan_3d(random.Random(1), 24)], 26, 1540),
    (fan3d_brion_pool, 12, 1115),
], ids=["random-3-depth-6", "random-1-depth-12", "random-1-depth-24", "fan3d-brion-pool"])
def test_mask_certificate_hulls_the_pairs_the_per_pair_reference_hulls(
        monkeypatch, make_fans, hulled, pairs):
    import toricgf.polyhedral as polyhedral

    tops = [[fan.cones[i] for i in fan.maximal_ids] for fan in make_fans()]
    real = polyhedral._hull_description
    hulls = []

    def counted(gens, n):
        hulls.append(tuple(gens))
        return real(gens, n)

    monkeypatch.setattr(polyhedral, "_hull_description", counted)
    routes = []
    for check in (polyhedral._check_intersections, per_pair_check_intersections):
        hulls.clear()
        for top in tops:
            check(top)
        routes.append(list(hulls))
    assert routes[0] == routes[1]
    assert len(routes[0]) == hulled
    assert sum(len(top) * (len(top) - 1) // 2 for top in tops) == pairs


def pair_check_witness(check, top):
    try:
        check(top)
    except FanAxiomViolation as e:
        return str(e)
    return None


OCTAHEDRON_RAY_MOVED = ([(-1, -1, -1)] + octahedron_fan_data()[0][1:], octahedron_fan_data()[1])


@pytest.mark.parametrize("dim, rays, maximal, valid", [
    (3, *OCTAHEDRON_RAY_MOVED, False),
    (2, [(1, 0), (1, 1), (0, 1)], [[0, 1], [0, 2]], False),
    (3, SQUARE, [[0, 1, 2, 3], [0, 2]], False),
    (2, [(1, 1), (0, 1), (-1, 1), (0, -1)], [[0, 1], [1, 2], [2, 3]], True),
], ids=["ray-moved-across-a-wall", "overlapping-cones", "diagonal-of-a-square",
        "incomplete-fan"])
def test_mask_certificate_raises_the_per_pair_reference_witness(dim, rays, maximal, valid):
    import toricgf.polyhedral as polyhedral

    top = [cone_from_rays(dim, [rays[i] for i in c]) for c in maximal]
    witness = pair_check_witness(polyhedral._check_intersections, top)
    assert witness == pair_check_witness(per_pair_check_intersections, top)
    assert (witness is None) == valid


def test_mask_certificate_agrees_with_the_per_pair_reference_on_broken_collections():
    import toricgf.polyhedral as polyhedral

    rng = random.Random(8)
    verdicts = Counter()
    for n, count, depth in ((2, 60, 6), (3, 25, 4), (4, 5, 2)):
        for top in cone_collections(rng, n, count, depth):
            witness = pair_check_witness(polyhedral._check_intersections, top)
            assert witness == pair_check_witness(per_pair_check_intersections, top), top
            verdicts[n, witness is None] += 1
    for n in (2, 3, 4):
        assert verdicts[n, True] and verdicts[n, False], verdicts


@pytest.mark.parametrize("gens", [
    [],
    [(1, 2, 3)],
    [(1, 0, 0), (1, 1, 0)],
    [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
], ids=["zero-cone", "ray", "2d-cone-in-3d", "orthant"])
def test_dual_of_a_pointed_cone_swaps_its_descriptions(monkeypatch, gens):
    import toricgf.polyhedral as polyhedral

    c = cone_from_rays(3, gens)
    ref = cone_from_rays(3, c.inequalities)
    hulled = []
    monkeypatch.setattr(polyhedral, "cone_from_rays",
                        lambda *args, **kwargs: hulled.append(args))
    d = dual_cone(c)
    assert not hulled
    assert d == ref and d.inequalities == ref.inequalities
    assert d.dim == 3 and d.pointed == (c.dim == 3)


def test_dual_of_a_non_pointed_cone_is_hulled(monkeypatch):
    import toricgf.polyhedral as polyhedral

    half_space = cone_from_rays(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1)])
    assert not half_space.pointed
    real = polyhedral.cone_from_rays
    hulled = []

    def counted(n, generators, **kwargs):
        hulled.append(generators)
        return real(n, generators, **kwargs)

    monkeypatch.setattr(polyhedral, "cone_from_rays", counted)
    d = dual_cone(half_space)
    assert hulled == [half_space.inequalities]
    ref = real(3, half_space.inequalities)
    assert d == ref and d.inequalities == ref.inequalities
    assert d.rays == ((0, 0, 1),) and d.pointed and d.dim == 1


def test_dual_of_a_tangent_cone_equals_the_hulled_dual():
    checked = 0
    for _, n, verts in POLYTOPES:
        p = lattice_polytope(n, verts)
        for w in p.vertices:
            c = cone_from_rays(n, [tuple(q[i] - w[i] for i in range(n)) for q in p.vertices])
            assert c.pointed
            d, ref = dual_cone(c), cone_from_rays(n, c.inequalities)
            assert d == ref and d.inequalities == ref.inequalities
            checked += 1
    assert checked >= 50


def test_check_complete_example1():
    assert check_complete(example1_fan()).complete


def test_check_complete_missing_cone():
    fan = build_fan(2, [[1, 1], [0, 1], [-1, 1], [0, -1]],
                    [[0, 1], [1, 2], [2, 3]])
    report = check_complete(fan)
    assert not report.complete
    assert "ridge" in report.witness


def test_check_complete_dim1():
    fan = build_fan(1, [[1], [-1]], [[0], [1]])
    assert check_complete(fan).complete


def test_check_complete_octahedron():
    assert check_complete(octahedron_fan()).complete


def test_support_from_ray_values_example1():
    fan = example1_fan()
    h = support_from_ray_values(fan, [0, -2, 0, -2])
    sid = fan.cone_id([(1, 1), (0, 1)])
    assert h.linear_part(sid) == (2, -2)
    for r, v in zip(fan.input_rays, [0, -2, 0, -2]):
        assert h.value(r) == v


def test_support_zero_values():
    fan = example1_fan()
    h = support_from_ray_values(fan, [0, 0, 0, 0])
    for i in range(len(fan.cones)):
        for r in fan.cones[i].rays:
            assert dot(h.linear_part(i), r) == 0


def test_support_globally_linear():
    fan = example1_fan()
    a = (3, -1)
    values = [dot(a, r) for r in fan.input_rays]
    h = support_from_ray_values(fan, values)
    for i in fan.maximal_ids:
        assert h.linear_part(i) == a


def test_support_not_integral():
    # On cone((1,1),(1,-1)) values (1,0) force the functional (1/2, 1/2).
    fan = build_fan(2, [[1, 1], [1, -1], [-1, 0]], [[0, 1], [1, 2], [2, 0]])
    with pytest.raises(NotIntegral):
        support_from_ray_values(fan, [1, 0, 0])


def test_support_not_linear_on_cone():
    # On the cone over a square, r1 + r3 == r2 + r4 forces v1 + v3 == v2 + v4;
    # these values break that while every simplicial face stays integral.
    rays = [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1),
            (0, 0, -1)]
    maximal = [[0, 1, 2, 3], [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
    fan = build_fan(3, rays, maximal)
    with pytest.raises(NotLinearOnCone):
        support_from_ray_values(fan, [2, 0, 0, 0, 0])


def test_support_non_integral_face_of_a_non_simplicial_cone():
    # On the pyramid over a square the values 1, 0 on (1,1,1), (-1,1,1) force
    # x = 1/2 on their common face, a face of the cone over the square, which
    # is linear (1 + 0 == 0 + 1) but not integral, and of a simplicial cone.
    fan = build_fan(3, *PYRAMID)
    with pytest.raises(NotIntegral):
        support_from_ray_values(fan, [1, 0, 0, 1, 0])


def test_support_face_consistency_invariant():
    rng = random.Random(13)
    from conftest import random_support_2d

    for _ in range(20):
        fan = random_fan_2d(rng)
        h = random_support_2d(rng, fan)
        for fid, cid in fan.face_relation:
            diff = tuple(a - b for a, b in zip(h.linear_part(cid), h.linear_part(fid)))
            for r in fan.cones[fid].rays:
                assert dot(diff, r) == 0


def test_normal_fan_unit_square():
    fan, h = normal_fan_of_polytope(unit_square())
    assert set(fan.rays) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    assert h.value((1, 0)) == 0
    assert h.value((0, 1)) == 0
    assert h.value((-1, 0)) == 1
    assert h.value((0, -1)) == 1
    sid = next(i for i in fan.maximal_ids if h.linear_part(i) == (-1, -1))
    # the cone of the vertex (1,1) consists of directions minimized there
    cone = fan.cones[sid]
    assert all(dot((1, 1), r) <= min(dot(w, r) for w in unit_square().vertices)
               for r in cone.rays)


def test_normal_fan_segment():
    p = lattice_polytope(1, [[0], [2]])
    fan, h = normal_fan_of_polytope(p)
    assert set(fan.rays) == {(1,), (-1,)}
    assert h.value((1,)) == 0
    assert h.value((-1,)) == 2
    # vertex 2: shifted dual cone is 2 + R_{<=0}
    sid = fan.cone_id([(-1,)])
    assert h.linear_part(sid) == (-2,)


def test_normal_fan_standard_simplex():
    p = lattice_polytope(2, [[0, 0], [1, 0], [0, 1]])
    fan, h = normal_fan_of_polytope(p)
    # inner facet normals of the simplex
    assert set(fan.rays) == {(1, 0), (0, 1), (-1, -1)}
    for w in p.vertices:
        sid = next(i for i in fan.maximal_ids
                   if h.linear_part(i) == tuple(-x for x in w))
        assert fan.cones[sid].dim == 2


def test_normal_fan_always_complete():
    rng = random.Random(21)
    for _ in range(15):
        pts = {tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(rng.randint(3, 7))}
        try:
            p = lattice_polytope(2, pts)
        except DegeneratePolytope:
            continue
        fan, h = normal_fan_of_polytope(p)
        assert check_complete(fan).complete
        # linear part at each vertex cone is minus the vertex
        for w in p.vertices:
            assert any(h.linear_part(i) == tuple(-x for x in w)
                       for i in fan.maximal_ids)


def test_lattice_polytope_drops_non_vertices():
    p = lattice_polytope(2, [[0, 0], [2, 0], [1, 0], [0, 2], [1, 1]])
    assert p.vertices == ((0, 0), (0, 2), (2, 0))


# Seeded point sets in [-2, 2]^n: per n, how many sets and the most points
# in one.  The hulled references cost C(m, n - 1) cross products at each of
# m points, so the 4-D sets are fewer and smaller.
POINT_SET_DRAWS = {1: (20, 6), 2: (40, 9), 3: (40, 12), 4: (12, 10)}


def random_point_sets(rng):
    """(n, point set) for each draw of ``POINT_SET_DRAWS``, n = 1..4."""
    for n, (count, most) in POINT_SET_DRAWS.items():
        for _ in range(count):
            yield n, {tuple(rng.randint(-2, 2) for _ in range(n))
                      for _ in range(rng.randint(n + 1, most))}


def test_vertex_test_agrees_with_the_normal_cone_dimension():
    checked = Counter()
    for n, pts in random_point_sets(random.Random(17)):
        try:
            p = lattice_polytope(n, pts)
        except DegeneratePolytope:
            continue
        assert list(p.vertices) == sorted(q for q in pts
                                          if normal_cone(q, sorted(pts), n).dim == n)
        checked[n] += 1
    assert min(checked[n] for n in POINT_SET_DRAWS) >= 8 and checked.total() >= 80


def test_normal_cones_are_the_duals_of_the_vertex_test_cones(monkeypatch):
    # The tangent cone that the vertex test read off the facets at each
    # vertex has the extreme rays and facets of the vertices' own hull: its
    # dual is the reference normal cone, and the normal fan hulls no vertex
    # cone again, nor does its build: the dual cones are its listed cones,
    # the octahedron's six 4-ray cones too.
    import toricgf.polyhedral as polyhedral

    lists = [(dim, verts) for _, dim, verts in POLYTOPES]
    lists += list(random_point_sets(random.Random(17)))
    dims = Counter()
    for n, pts in lists:
        try:
            p = lattice_polytope(n, pts)
        except DegeneratePolytope:
            continue
        for w, c in zip(p.vertices, p.tangent_cones):
            ref = normal_cone(w, list(p.vertices), n)
            dual = polyhedral.dual_cone(c)
            assert (dual.rays, dual.inequalities) == (ref.rays, ref.inequalities)
        dims[n] += 1
    assert set(dims) == {1, 2, 3, 4}
    cube, octahedron = (lattice_polytope(dim, verts) for _, dim, verts in POLYTOPES[4:6])
    real, hulled = polyhedral.cone_from_rays, []
    monkeypatch.setattr(polyhedral, "cone_from_rays",
                        lambda *args, **kwargs: hulled.append(args) or real(*args, **kwargs))
    for p in (cube, octahedron):
        normal_fan_of_polytope(p)
    assert hulled == []


# Point sets with repeated, collinear, interior and edge points, sets of
# rank below n, sets of one point or none, and a point of another
# dimension.
SPECIAL_POINT_SETS = (
    (1, [(3,), (3,), (-1,), (0,), (1,)]),
    (1, [(2,), (2,)]),
    (2, []),
    (2, [(0, 0), (1,), (0, 1), (1, 0)]),
    (2, [(0, 0), (1, 1), (2, 2), (1, 1)]),
    (2, [(0, 0), (2, 0), (0, 2), (1, 0), (1, 1), (0, 1), (0, 0)]),
    (2, [(0, 0), (4, 0), (0, 4), (1, 1), (2, 1), (1, 2)]),
    (3, [(1, 2, 3)]),
    (3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 2, 0)]),
    (3, [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 0, 0), (1, 1, 0), (0, 0, 1),
         (1, 0, 1)]),
    (3, list(product(range(3), repeat=3))),
    (3, [(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 0, 1)]),
    (4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)]),
    (4, [(0, 0, 0, 0), (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3),
         (1, 1, 0, 0), (1, 0, 0, 0), (0, 1, 1, 1), (1, 1, 1, 0)]),
    (4, list(product((0, 1), repeat=4)) + [(1, 1, 1, 1), (0, 0, 1, 1)]),
    (4, [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
     + [(0, 0, 0, 0)]),
)


def polytope_description(build, n, pts):
    """The vertices of build(n, pts) and each tangent cone's rays,
    inequalities, dim and pointedness, or the error it raises."""
    def describe():
        p = build(n, pts)
        return p.vertices, [(c.rays, c.inequalities, c.dim, c.pointed)
                            for c in p.tangent_cones]
    return outcome(describe)


def test_vertex_test_agrees_with_the_per_point_hull():
    lists = list(SPECIAL_POINT_SETS) + [(dim, verts) for _, dim, verts in POLYTOPES]
    lists += list(random_point_sets(random.Random(29)))
    kinds = Counter()
    for n, pts in lists:
        got = polytope_description(lattice_polytope, n, pts)
        assert got == polytope_description(hulled_lattice_polytope, n, pts), (n, pts)
        kinds[got[0], n] += 1
    assert all(kinds["returned", n] >= 8 for n in POINT_SET_DRAWS)
    assert kinds["DegeneratePolytope", 2] and kinds["DegeneratePolytope", 4]


def test_vertex_test_crosses_each_candidate_once_and_hulls_no_cone(monkeypatch):
    # One cross product per n points and nothing else: no rank, no record,
    # no hull, at a vertex on n facets (the cubes) or more (the octahedron,
    # the cross-polytope).
    import toricgf.polyhedral as polyhedral

    calls = Counter()
    for name in ("cone_from_rays", "_hull_description", "_simplex", "cross_product", "rank"):
        real = getattr(polyhedral, name)
        monkeypatch.setattr(polyhedral, name, lambda *args, _real=real, _name=name, **kwargs:
                            calls.update([_name]) or _real(*args, **kwargs))
    cross4 = [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
    for n, pts, candidates in ((3, POLYTOPES[4][2], 56), (3, POLYTOPES[5][2], 20),
                               (4, list(product((0, 1), repeat=4)), 1820), (4, cross4, 70)):
        calls.clear()
        lattice_polytope(n, pts)
        assert calls == Counter(cross_product=candidates)


@pytest.mark.parametrize("bad", [0.9, 2.0, Fraction(1, 2), "1"])
def test_lattice_polytope_refuses_a_coordinate_that_is_not_an_integer(bad):
    with pytest.raises(ValueError, match=re.escape(f"point {[bad, 0]} has a coordinate")):
        lattice_polytope(2, [[bad, 0], [2, 0], [0, 2]])


@pytest.mark.parametrize("values", [[0.5, 1.9, -0.7], [0, 1, 2.0], [0, Fraction(1, 2), 0],
                                    [0, 0, "1"]])
def test_support_refuses_a_value_that_is_not_an_integer(values):
    fan = build_fan(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]])
    bad = next(v for v in values if type(v) is not int)
    with pytest.raises(ValueError, match=re.escape(f"ray value {bad!r} is not an integer")):
        support_from_ray_values(fan, values)


def outcome(fn):
    """What fn() returns, or the name and message of what it raises."""
    try:
        return "returned", fn()
    except Exception as e:
        return type(e).__name__, str(e)


def normal_fan_description(build):
    """The rays, the cones with their inequalities, the face relation, the
    record ids and the linear parts of a normal fan's build, or its error."""
    def describe():
        fan, support = build()
        return (fan.input_rays, [(c, c.inequalities) for c in fan.cones], fan.face_relation,
                sorted(fan.simplices), support.linear_parts)
    return outcome(describe)


def test_normal_fan_reuses_its_dual_cones_as_the_rehulling_build_does():
    # The normal fan hands its dual cones to the build with no second hull;
    # the reference hands their ray indices to build_fan, which hulls again
    # every one that is not simplicial.
    rng = random.Random(23)
    lists = [(dim, verts) for _, dim, verts in POLYTOPES]
    lists += [(2, [(0, 0), (1, 1), (2, 2)]), (3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])]
    for n in (2, 3):
        lists += [(n, {tuple(rng.randint(-2, 2) for _ in range(n))
                       for _ in range(rng.randint(n + 1, 3 * n + 3))}) for _ in range(40)]
    kinds = Counter()
    for n, pts in lists:
        got = normal_fan_description(lambda: normal_fan_of_polytope(lattice_polytope(n, pts)))
        want = normal_fan_description(
            lambda: rehulled_normal_fan(lattice_polytope(n, pts)))
        assert got == want, pts
        kinds[got[0]] += 1
        if got[0] == "returned":
            kinds["not simplicial"] += any(len(c.rays) > c.dim for c, _ in got[1][1])
    assert kinds["returned"] >= 60 and kinds["DegeneratePolytope"] and kinds["not simplicial"]


def test_lattice_polytope_degenerate():
    with pytest.raises(DegeneratePolytope):
        lattice_polytope(2, [[0, 0], [1, 0], [2, 0]])
