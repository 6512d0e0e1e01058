"""Shared fixtures: the worked 2-D example, polytopes, seeded random
complete fans in dimensions 2 and 3, a 5-D fan with torsion, and slow
references for fast paths."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product
from math import atan2, ceil, floor, gcd

import pytest

from toricgf import (build_fan, cone_from_rays, dual_cone, lattice_polytope,
                     normal_fan_of_polytope, support_from_ray_values)
from toricgf.genfun import box_points
from toricgf.intlinalg import determinant, dot, matvec, primitive_vector, rank
from toricgf import cellular, polyhedral
from toricgf.polyhedral import (CompletenessReport, FanAxiomViolation, NotIntegral,
                                NotLinearOnCone, _face_ray_sets)

from reference import binomial_product, first_independent_rows, minor_adjugate


def example1_fan():
    """Complete 2-D fan on rays (1,1),(0,1),(-1,1),(0,-1)."""
    return build_fan(2, [[1, 1], [0, 1], [-1, 1], [0, -1]],
                     [[0, 1], [1, 2], [2, 3], [3, 0]])


def example1_support():
    return support_from_ray_values(example1_fan(), [0, -2, 0, -2])


def p2_fan():
    return build_fan(2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]])


def octahedron_fan_data():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    maximal = [[a, b, c] for a in (0, 3) for b in (1, 4) for c in (2, 5)]
    return rays, maximal


def octahedron_fan():
    rays, maximal = octahedron_fan_data()
    return build_fan(3, rays, maximal)


def unit_square():
    return lattice_polytope(2, [[0, 0], [1, 0], [0, 1], [1, 1]])


def _angular_cmp(v, w):
    def half(u):
        return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1

    hv, hw = half(v), half(w)
    if hv != hw:
        return hv - hw
    cross = v[0] * w[1] - v[1] * w[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


_DIAGONALS = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
_STEEP = [(2, 1), (1, 2), (-2, 1), (-1, 2), (-2, -1), (-1, -2), (2, -1), (1, -2)]


def random_fan_2d(rng: random.Random):
    """Random complete 2-D fan: the four axis rays, a random selection of
    diagonals, and occasionally a steeper primitive ray."""
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    rays.update(rng.sample(_DIAGONALS, rng.randint(0, 4)))
    if rng.random() < 0.3:
        rays.add(rng.choice(_STEEP))
    ordered = sorted(rays, key=cmp_to_key(_angular_cmp))
    maximal = [[i, (i + 1) % len(ordered)] for i in range(len(ordered))]
    return build_fan(2, ordered, maximal)


def random_support_2d(rng: random.Random, fan, bound: int = 2):
    """Random integral support values on a complete 2-D fan.

    Walk the maximal cones in angular order, bending the linear part across
    each shared ray by a multiple of the functional vanishing on it; only
    the closing cone can then fail integrality, and the walk is retried.
    """
    ordered = sorted(fan.rays, key=cmp_to_key(_angular_cmp))
    m = len(ordered)
    for _ in range(500):
        h = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        values = {ordered[0]: dot(h, ordered[0]), ordered[1]: dot(h, ordered[1])}
        for i in range(1, m - 1):
            r = ordered[i]
            k = (-r[1], r[0])
            t = rng.randint(-1, 1)
            cand = (h[0] + t * k[0], h[1] + t * k[1])
            if max(abs(c) for c in cand) <= bound:
                h = cand
            values[ordered[i + 1]] = dot(h, ordered[i + 1])
        vals = [values[r] for r in fan.input_rays]
        try:
            return support_from_ray_values(fan, vals)
        except (NotIntegral, NotLinearOnCone):
            continue
    raise AssertionError("no valid support values found")


def random_fan_3d(rng: random.Random, subdivisions: int = 0):
    """Random complete simplicial 3-D fan: the octahedron fan with a number
    of barycentric ray insertions.  All cones stay unimodular, so every
    integer value assignment is a valid support function."""
    rays, maximal = octahedron_fan_data()
    rays = list(rays)
    maximal = [list(c) for c in maximal]
    for _ in range(subdivisions):
        pick = rng.randrange(len(maximal))
        cone = maximal.pop(pick)
        w = primitive_vector(tuple(sum(rays[i][j] for i in cone) for j in range(3)))
        rays.append(w)
        new = len(rays) - 1
        for omit in range(3):
            maximal.append([new] + [cone[j] for j in range(3) if j != omit])
    fan = build_fan(3, rays, maximal)
    for i in fan.maximal_ids:
        cols = [[r[j] for r in fan.cones[i].rays] for j in range(3)]
        assert determinant(cols) in (1, -1)
    return fan


def cross_polytope_fan_data(rng, n, subdivisions):
    """Rays and maximal ray-index lists of the fan over the n-dimensional
    cross-polytope's faces, after stellar subdivisions of random maximal
    cones."""
    rays = [tuple(s * (i == j) for j in range(n)) for s in (1, -1) for i in range(n)]
    maximal = [[i + n * b for i, b in enumerate(bits)] for bits in product((0, 1), repeat=n)]
    for _ in range(subdivisions):
        cone = maximal.pop(rng.randrange(len(maximal)))
        rays.append(primitive_vector(tuple(sum(rays[i][j] for i in cone) for j in range(n))))
        maximal += [[len(rays) - 1] + [i for i in cone if i != omit] for omit in cone]
    return rays, maximal


def cone_collections(rng, n, count, max_subdivisions):
    """Seeded collections of pointed cones in dimension n: complete fans, the
    same with a cone missing, with an extra cone (a listed one with a ray
    swapped for another, or on n-1 random rays), and with a ray moved across
    a wall into a maximal cone that does not have it.  Where the swap would
    repeat a listed cone, the next candidate ray in list order is taken, so
    the extra cone is never listed twice and no extra draw is made."""
    for _ in range(count):
        rays, maximal = cross_polytope_fan_data(rng, n, rng.randint(0, max_subdivisions))
        i = rng.randrange(len(rays))
        into = rng.choice([c for c in maximal if i not in c])
        moved = list(rays)
        moved[i] = primitive_vector(tuple(map(sum, zip(*(rays[j] for j in into)))))
        swapped = list(rng.choice(maximal))
        others = [j for j in range(len(rays)) if j not in swapped]
        start = others.index(rng.choice(others))
        k = rng.randrange(n)
        listed = {frozenset(c) for c in maximal}
        for step in range(len(others)):
            swapped[k] = others[(start + step) % len(others)]
            if frozenset(swapped) not in listed:
                break
        drop = rng.randrange(len(maximal))
        variants = [
            (rays, maximal),
            (rays, maximal[:drop] + maximal[drop + 1:]),
            (rays, maximal + [swapped]),
            (rays, maximal + [rng.sample(range(len(rays)), n - 1)]),
            (moved, maximal),
        ]
        for rs, cones in variants:
            top = [cone_from_rays(n, [rs[i] for i in c]) for c in cones]
            if all(c.pointed for c in top):
                yield top


RP2_TRIANGLES = "123 134 145 156 162 235 346 452 563 624"


def rp2_torsion_fan_data():
    """Rays, maximal ray-index lists and support values of a complete
    unimodular 5-D fan whose cones on its first six rays form the 6-vertex
    RP^2.  Start from the fan over the 5-simplex, rays e1..e5 and
    -(e1+...+e5) with the six 5-subsets as maximal cones, whose triangles
    are all faces.  Each triangle not in ``RP2_TRIANGLES`` (1-based), in
    lexicographic order, is subdivided stellarly: the primitive sum of its
    rays is a new ray, and each maximal cone on the triangle is replaced by
    the three that take the new ray in place of one of the triangle's.  The
    result has 16 rays, 90 maximal cones and 627 cones.  The support is 0 on
    the six old rays and -1 on the ten new ones: at degree 0 the subcomplex
    is RP^2, whose H_1 has the torsion Z/2."""
    rays = [tuple(int(i == j) for j in range(5)) for i in range(5)] + [(-1,) * 5]
    maximal = [list(c) for c in combinations(range(6), 5)]
    faces = {frozenset(int(v) - 1 for v in t) for t in RP2_TRIANGLES.split()}
    for tri in combinations(range(6), 3):
        if frozenset(tri) in faces:
            continue
        rays.append(primitive_vector(tuple(map(sum, zip(*(rays[i] for i in tri))))))
        new, cones = len(rays) - 1, []
        for c in maximal:
            if set(tri) <= set(c):
                cones += [[new if i == omit else i for i in c] for omit in tri]
            else:
                cones.append(c)
        maximal = cones
    return rays, maximal, [0] * 6 + [-1] * (len(rays) - 6)


def random_support_3d(rng: random.Random, fan, spread: int = 1):
    values = [rng.randint(-spread, spread) for _ in fan.input_rays]
    return support_from_ray_values(fan, values)


def cross_polytope_battery():
    """The 4-D cross-polytope fan after 0-4 stellar subdivisions, three seeded
    fans per depth.  Every cone stays unimodular, so any values are a
    support function."""
    rng = random.Random(404)
    cases = []
    for subdivisions in range(5):
        for _ in range(3):
            rays, maximal = cross_polytope_fan_data(rng, 4, subdivisions)
            fan = build_fan(4, rays, maximal)
            values = [rng.randint(-2, 2) for _ in rays]
            cases.append((fan, support_from_ray_values(fan, values)))
    return cases


def lattice_polygon_cone(edges):
    """Cone over the lattice polygon whose edge vectors, in angular order,
    are the given primitive vectors (which must sum to zero)."""
    x = y = 0
    rays = []
    for a, b in sorted(edges, key=lambda e: atan2(e[1], e[0])):
        rays.append((x, y, 1))
        x, y = x + a, y + b
    if (x, y) != (0, 0):
        raise ValueError("edge vectors do not close up")
    return cone_from_rays(3, rays)


def primitive_edges(radius):
    """The primitive (a, b) with 0 < |a| + |b| <= radius."""
    return [(a, b) for a in range(-radius, radius + 1) for b in range(-radius, radius + 1)
            if 0 < abs(a) + abs(b) <= radius and gcd(a, b) == 1]


CASE_SEED = 20240601


def random_battery():
    """The acceptance suite's deterministic battery of random cases: 170
    2-D fans and 34 3-D fans with at most two subdivisions."""
    rng = random.Random(CASE_SEED)
    cases = []
    for i in range(170):
        fan = random_fan_2d(rng)
        cases.append((fan, random_support_2d(rng, fan)))
    for i in range(22):
        fan = random_fan_3d(rng, 0)
        if i % 6 == 5:
            # strictly negative values guarantee top cohomology somewhere
            h = support_from_ray_values(fan, [rng.randint(-2, -1)
                                              for _ in fan.input_rays])
        else:
            h = random_support_3d(rng, fan, spread=rng.choice([1, 1, 2]))
        cases.append((fan, h))
    for _ in range(8):
        fan = random_fan_3d(rng, 1)
        cases.append((fan, random_support_3d(rng, fan)))
    for _ in range(4):
        fan = random_fan_3d(rng, 2)
        cases.append((fan, random_support_3d(rng, fan)))
    return cases


HEXAGON = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
OCTAGON = ((2, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2), (0, 1), (1, 0))

# The polytope corpus: (name, dimension, vertices).
POLYTOPES = (
    ("segment", 1, [[0], [2]]),
    ("square", 2, [[0, 0], [1, 0], [0, 1], [1, 1]]),
    ("triangle-3", 2, [[0, 0], [3, 0], [0, 3]]),
    ("square-2", 2, [[0, 0], [2, 0], [0, 2], [2, 2]]),
    ("cube", 3, [list(v) for v in product([0, 1], repeat=3)]),
    ("octahedron", 3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                       [0, 0, 1], [0, 0, -1]]),
    # Many-facet cones: non-simplicial normal cones with 6 or 8 facets.
    ("hexagonal-pyramid", 3, [[x, y, 0] for x, y in HEXAGON] + [[0, 0, 1]]),
    ("hexagonal-prism", 3, [[x, y, z] for x, y in HEXAGON for z in (0, 1)]),
    ("octagon", 2, [list(v) for v in OCTAGON]),
    ("octagon-pyramid", 3, [[x, y, 0] for x, y in OCTAGON] + [[1, 1, 2]]),
)

# Cone collections that are not fans, as (dim, rays, maximal cones).  In
# the first four every ridge lies in exactly two listed cones.
#
# Every ray lies in two cones, on opposite sides, and the cones wind twice
# around the origin: only the one-point test fails.
PENTAGRAM = (2, [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)],
             [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]])
# The cycle of cones turns back at (1,-2) and again at (0,-1), covering the
# wedge between them three times: only the side test fails.
ZIGZAG = (2, [(1, 0), (-1, 1), (-1, -1), (1, -2), (0, -1), (1, -1)],
          [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]])
# Three cones in the first quadrant folded back on each other.
FOLDED = (2, [(1, 0), (0, 1), (1, 2)], [[0, 1], [1, 2], [2, 0]])
# Eight cones winding twice around the origin.
DOUBLE_COVER = (2, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (-1, -1), (1, -1)],
                [[i, (i + 1) % 8] for i in range(8)])
# A simplicial cone inside the cone over a square, on one of its edges.
SQUARE_AND_INNER_CONE = (3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1)],
                         [[0, 1, 2, 3], [0, 1, 4]])


def cross_multiplied_equal(a, b):
    """Equality of two rational generating functions by cross-multiplication,
    with no sign rewrite: the slow reference for ``genfun.rational_equal``.
    Common factors are cancelled first; the binomials are not zero divisors,
    so this is sound."""
    ca = Counter(a.denominator_factors)
    cb = Counter(b.denominator_factors)
    left = a.numerator * binomial_product(a.dim, (cb - ca).elements())
    right = b.numerator * binomial_product(b.dim, (ca - cb).elements())
    return left == right


def double_hull_meets_in_faces(top):
    """Whether every two of the given pointed cones meet in a common face, by
    the double description: the intersection is the dual of the cone on both
    inequality lists, and its rays must be a face's rays in each.  The slow
    reference for ``polyhedral._check_intersections``."""
    faces = [_face_ray_sets(c) for c in top]
    for (a, fa), (b, fb) in combinations(zip(top, faces), 2):
        inter = dual_cone(cone_from_rays(a.ambient_dim, a.inequalities + b.inequalities))
        if frozenset(inter.rays) not in fa or frozenset(inter.rays) not in fb:
            return False
    return True


def per_pair_check_intersections(top):
    """The fan axiom pair check with its first certificate summed per pair:
    the inequalities of a that are <= 0 on every ray of b, minus those of b
    that are <= 0 on every ray of a, dotted with the rays of both.  A pair it
    leaves open goes to the same separation-lemma hull.  The slow reference
    for the ray-mask certificate of ``polyhedral._check_intersections``."""
    for a, b in combinations(top, 2):
        normals = [v for v in a.inequalities if all(dot(v, r) <= 0 for r in b.rays)]
        normals += [tuple(-x for x in w) for w in b.inequalities
                    if all(dot(w, r) <= 0 for r in a.rays)]
        on_a, on_b = polyhedral._cuts(normals, a, b)
        if on_a == on_b or not on_a or not on_b:
            continue
        gens = sorted(set(a.rays) | {tuple(-x for x in r) for r in b.rays})
        on_a, on_b = polyhedral._cuts(
            polyhedral._hull_description(gens, a.ambient_dim)[2], a, b)
        if on_a != on_b:
            raise FanAxiomViolation(f"intersection of {a} and {b} is not a common face")


def subset_face_relation(fan):
    """Every (face, cone) pair one dimension apart whose ray sets nest, over
    all ordered pairs of cones: the slow reference for ``build_fan``'s face
    relation."""
    keys = [frozenset(c.rays) for c in fan.cones]
    return {(j, i) for i, c in enumerate(fan.cones) for j, f in enumerate(fan.cones)
            if f.dim == c.dim - 1 and keys[j] <= keys[i]}


def fan3d_brion_pool():
    """The benchmark's 15 subdivided octahedron fans: fan i has 2, 2 or 3
    barycentric subdivisions drawn by Random(i)."""
    return [random_fan_3d(random.Random(i), (2, 2, 3)[i % 3]) for i in range(15)]


def fan3d_brion_pool_supports():
    """The benchmark's fan pool with its base support values: after fan i,
    the same Random(i) draws one value in [-2, 2] per ray."""
    cases = []
    for i in range(15):
        rng = random.Random(i)
        fan = random_fan_3d(rng, (2, 2, 3)[i % 3])
        cases.append((fan, random_support_3d(rng, fan, spread=2)))
    return cases


def dense_boundaries(cc, keep, bases, e):
    """The boundary matrices of a subcomplex with one incidence per (cell,
    lower cell) pair, each found from scratch from the cells' bases and
    scaled by the cells' signs e: the witness is the first ray that raises
    the rank of the facet's basis, and the cell's rows and minor are
    recomputed per pair.  The slow reference for ``chain_complex``, whose
    incidences are e[s] e[t] times these when the two agree."""
    fan, n = cc.fan, cc.fan.ambient_dim

    def sign(s, t):
        if (t, s) not in fan.face_relation:
            return 0
        if t == cc.empty_cell:
            return e[s] * e[t]
        bs, bt, d = bases[s], bases[t], fan.cones[s].dim
        w = next(r for r in fan.cones[s].rays if rank(bt + [r]) == d)
        rows, det_s = first_independent_rows(bs, n)
        det_c = determinant([[v[r] for v in bt + [w]] for r in rows])
        return e[s] * e[t] * (1 if (det_s > 0) == (det_c > 0) else -1)

    cells = {d: [i for i in ids if d < 0 or i in keep] for d, ids in cc.cells_by_degree.items()}
    return {d: [[sign(s, t) for s in cells[d]] for t in cells[d - 1]] for d in range(n)}


def minor_incidence(fan, bases, s, t):
    """The incidence of a facet t of s from the cells' bases with no
    permutation shortcut: det of t's basis plus the first ray of s off t
    against det of s's basis, on the first rows where s's basis is
    invertible; 1 on the empty cell."""
    if t == fan.zero_id:
        return 1
    w = next(r for r in fan.cones[s].rays if r not in fan.cones[t].rays)
    rows, det_s = first_independent_rows(bases[s], fan.ambient_dim)
    det_c = determinant([[col[r] for col in (*bases[t], w)] for r in rows])
    assert det_c != 0
    return 1 if (det_s > 0) == (det_c > 0) else -1


def general_cone_from_rays(n, generators):
    """``cone_from_rays`` with no shortcut for independent generators: the
    general hull, with its rank and a cross product per d-1 generators, one
    rank for pointedness and one per generator for extremality."""
    gens = sorted({primitive_vector(tuple(g)) for g in generators if any(g)})
    with pytest.MonkeyPatch.context() as m:
        m.setattr(polyhedral, "_simplicial_facets", lambda gens: [])
        hull = polyhedral._face(n, gens)
    ineqs = hull.inequalities
    if not (rank(ineqs) == n if ineqs else n == 0):
        return replace(hull, pointed=False)
    return replace(hull, rays=tuple(
        g for g in gens if rank([u for u in ineqs if dot(u, g) == 0]) == n - 1))


def sphere_homology_completeness(fan):
    """Completeness by the ridge counts and the homology of the sphere cell
    complex, which must be that of S^(n-1).  The slow reference for
    ``check_complete``'s ridge certificate."""
    n = fan.ambient_dim
    if not fan.maximal_ids:
        return CompletenessReport(False, "no full-dimensional cones")
    parents = Counter(fid for cid in fan.maximal_ids for fid in fan.facet_ids(cid))
    for i, c in enumerate(fan.cones):
        if c.dim == n - 1 and parents[i] != 2:
            return CompletenessReport(
                False, f"ridge {list(c.rays)} lies in {parents[i]} maximal cone(s)")
    keep = frozenset(i for i, c in enumerate(fan.cones) if c.dim > 0)
    hom = cellular.subcomplex_homology(cellular.cell_complex(fan), keep)
    for d in range(-1, n):
        if hom.betti[d] != (1 if d == n - 1 else 0):
            return CompletenessReport(False, f"reduced homology rank {hom.betti[d]} in degree {d}")
        if hom.torsion[d]:
            return CompletenessReport(False, f"torsion in homology degree {d}")
    return CompletenessReport(True)


def face_closure(fan, ids):
    """The nonzero cones that are faces of the given cones."""
    keep, todo = set(), list(ids)
    while todo:
        i = todo.pop()
        if i not in keep and fan.cones[i].dim > 0:
            keep.add(i)
            todo.extend(fan.facet_ids(i))
    return frozenset(keep)


def adjugate_degree_region(h):
    """The bounding box of the ray hyperplane arrangement's vertices, one
    determinant, adjugate and ``Fraction`` per n-subset of rays.  The slow
    reference for ``cohomology.degree_region``."""
    n = h.fan.ambient_dim
    vertices = []
    for subset in combinations(h.fan.rays, n):
        a = [list(r) for r in subset]
        det = determinant(a)
        if det:
            sol = matvec(minor_adjugate(a), [-h.value(r) for r in subset])
            vertices.append(tuple(Fraction(x, det) for x in sol))
    return tuple((floor(min(v[i] for v in vertices)), ceil(max(v[i] for v in vertices)))
                 for i in range(n))


def first_shell_failure(idx, box):
    """The first degree in box order on the shell around the box whose
    per-point mask has a nonzero signed count, with that count, or None.
    The slow reference for the shell check of ``cohomology_table``."""
    *head, (lo, hi) = wide = [(lo - 1, hi + 1) for lo, hi in box]
    for prefix in box_points(head):
        inner = all(a < x < b for x, (a, b) in zip(prefix, wide))
        for t in (lo, hi) if inner else range(lo, hi + 1):
            count = idx.subcomplex((*prefix, t)).signed_count
            if count:
                return (*prefix, t), count
    return None


def total_dims(table):
    """Per-degree sums of the cohomology dimensions over a table's entries."""
    return tuple(sum(dims[k] for dims, _, _ in table.entries.values())
                 for k in range(table.ambient_dim + 1))


@pytest.fixture
def ex1():
    return example1_support()


DEEP_SEEDS = range(30)
DEEP_DEPTHS = (8, 12)


@pytest.fixture(scope="session")
def deep_fans():
    """random_fan_3d at both 8 and 12 subdivisions for every seed; the
    shallow fans of the other tests hid a rank fault that made about two
    thirds of these fail to build."""
    return [random_fan_3d(random.Random(seed), depth)
            for seed in DEEP_SEEDS for depth in DEEP_DEPTHS]


def fan_battery(name, request):
    """(fan, support) pairs of one agreement battery: the acceptance suite's
    random cases, the benchmark's fan pool, the deep 3-D fans with spread-2
    support, the polytope corpus's normal fans, the random polytope
    battery's normal fans, the seeded 4-D cross-polytope fans, or the RP^2
    torsion fan."""
    if name == "acceptance":
        return random_battery()
    if name == "pool":
        return fan3d_brion_pool_supports()
    if name == "deep":
        rng = random.Random(77)
        return [(fan, random_support_3d(rng, fan, spread=2))
                for fan in request.getfixturevalue("deep_fans")]
    if name == "polytopes":
        return [normal_fan_of_polytope(lattice_polytope(dim, verts))
                for _, dim, verts in POLYTOPES]
    if name == "random-polytopes":
        return [normal_fan_of_polytope(lattice_polytope(3, pts))
                for pts in random_polytope_points()]
    if name == "rp2":
        rays, maximal, values = rp2_torsion_fan_data()
        fan = build_fan(5, rays, maximal)
        return [(fan, support_from_ray_values(fan, values))]
    return cross_polytope_battery()


def random_polytope_points():
    """Eight seeded lists of 8-12 points in [-2, 2]^3: the random polytope
    battery, whose tangent cones are mostly not simplicial."""
    rng = random.Random(28)
    return [[tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.randint(8, 12))]
            for _ in range(8)]
