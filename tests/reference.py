"""Reference code that only the tests use: plain paths kept out of the
package because no command reaches them."""

from fractions import Fraction
from itertools import combinations
from math import gcd

from toricgf.genfun import LaurentPolynomial, times_binomials
from toricgf.intlinalg import Matrix, Vector, determinant, dot, rank, transpose
from toricgf.polyhedral import (Cone, DegeneratePolytope, LatticePolytope, build_fan,
                                cone_from_rays, dual_cone, support_from_ray_values)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def fraction_elimination(rows) -> tuple[int, Fraction]:
    """Gaussian elimination over the rationals, first nonzero pivot in each
    column: the rank, and the product of the pivots negated at each row
    swap, which is the determinant of a square matrix of full rank."""
    m = [[Fraction(x) for x in row] for row in rows]
    r, det = 0, Fraction(1)
    for c in range(len(m[0]) if m else 0):
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            det = -det
        top = m[r]
        det *= top[c]
        for row in m[r + 1:]:
            if f := row[c] / top[c]:
                row[:] = [x - f * y for x, y in zip(row, top)]
        r += 1
    return r, det


def fraction_rank(rows) -> int:
    return fraction_elimination(rows)[0]


def fraction_determinant(a: Matrix) -> int:
    r, det = fraction_elimination(a)
    return int(det) if r == len(a) else 0


def determinantal_factors(a: Matrix) -> list[int]:
    """The invariant factors d_k = D_k / D_(k-1) up to the rank, with D_k the
    gcd of the k x k minors of a, each a ``fraction_determinant``."""
    rows, cols = len(a), len(a[0]) if a else 0
    factors, last = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, fraction_determinant([[a[r][c] for c in cs] for r in rs]))
        if not g:
            break
        factors.append(g // last)
        last = g
    return factors


def minor_adjugate(a: Matrix) -> Matrix:
    """The adjugate by its n^2 cofactors, each a Smith form determinant: the
    reference for ``intlinalg.adjugate``, which reads the columns off cross
    products."""
    n = len(a)
    if n == 0:
        return []
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[a[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            adj[j][i] = (-1) ** (i + j) * determinant(minor)
    return adj


def binomial_product(dim: int, factors) -> LaurentPolynomial:
    """Product of (1 - x^g) over the given factor vectors."""
    return times_binomials(LaurentPolynomial.constant(dim, 1), factors)


def normal_cone(point: Vector, points: list[Vector], n: int) -> Cone:
    """The cone of functionals minimised over ``points`` at ``point``: the
    dual of the cone the other points span from it."""
    ineqs = [tuple(p[i] - point[i] for i in range(n))
             for p in points if p != point]
    return dual_cone(cone_from_rays(n, ineqs))


def rehulled_normal_fan(p):
    """``normal_fan_of_polytope`` with the dual cones handed to ``build_fan``
    as ray indices, so the build hulls again each one that is not
    simplicial."""
    n, verts = p.ambient_dim, p.vertices
    cones = [dual_cone(c) for c in p.tangent_cones]
    ray_list = sorted({r for c in cones for r in c.rays})
    index = {r: i for i, r in enumerate(ray_list)}
    fan = build_fan(n, ray_list, [[index[r] for r in c.rays] for c in cones])
    values = [-min(dot(w, r) for w in verts) for r in ray_list]
    return fan, support_from_ray_values(fan, values)


def hulled_lattice_polytope(ambient_dim: int, points):
    """``lattice_polytope`` by a hull at every point: the cone the other
    points span from it, kept when it is pointed."""
    pts = sorted({tuple(int(x) for x in p) for p in points})
    if not pts:
        raise DegeneratePolytope("no points given")
    for p in pts:
        if len(p) != ambient_dim:
            raise ValueError(f"point {p} does not live in dimension {ambient_dim}")
    base = pts[0]
    diffs = [[p[i] - base[i] for i in range(ambient_dim)] for p in pts[1:]]
    if rank(diffs) != ambient_dim:
        raise DegeneratePolytope(f"points span dimension {rank(diffs)} < {ambient_dim}")
    cones = {p: c for p in pts if (c := cone_from_rays(
        ambient_dim, [[q[i] - p[i] for i in range(ambient_dim)] for q in pts])).pointed}
    return LatticePolytope(ambient_dim, tuple(cones), tuple(cones.values()))


def hulled_triangulation(c: Cone) -> list[tuple[Vector, ...]]:
    """``genfun._triangulate_rays`` with every facet that misses the first
    ray hulled by ``cone_from_rays``, the simplicial ones too."""
    if c.dim == len(c.rays):
        return [c.rays]
    r0 = c.rays[0]
    facets = sorted({tuple(g for g in c.rays if dot(u, g) == 0) for u in c.inequalities})
    return [(r0,) + sub for facet in facets if r0 not in facet
            for sub in hulled_triangulation(cone_from_rays(c.ambient_dim, facet))]


def greedy_basis(vectors) -> list[Vector]:
    """Maximal linearly independent subset, scanning in the given order."""
    basis: list[Vector] = []
    for v in vectors:
        if rank([*basis, v]) > len(basis):
            basis.append(v)
    return basis


def cell_bases(fan) -> dict[int, list[Vector]]:
    """Per nonzero cone id, the ordered spanning rays that orient its cell:
    a simplicial cone's rays, any other cone's ``greedy_basis``, the first
    two swapped on a maximal cone whose determinant is negative."""
    n, bases = fan.ambient_dim, {}
    for i, c in enumerate(fan.cones):
        if c.dim:
            b = bases[i] = list(c.rays) if len(c.rays) == c.dim else greedy_basis(c.rays)
            if c.dim == n >= 2 and determinant([list(v) for v in b]) < 0:
                b[0], b[1] = b[1], b[0]
    return bases


def permutation_sign(cols, ref) -> int:
    """The sign of cols as a rearrangement of ref, or 0 when it is none."""
    position = {r: k for k, r in enumerate(ref)}
    if len(cols) != len(position) or position.keys() != set(cols):
        return 0
    return (-1) ** sum(position[a] > position[b] for a, b in combinations(cols, 2))


def first_independent_rows(cols, n: int) -> tuple[tuple[int, ...], int]:
    """The lexicographically first rows on which the columns are invertible,
    with that nonzero minor."""
    for rows in combinations(range(n), len(cols)):
        if minor := determinant([[col[r] for col in cols] for r in rows]):
            return rows, minor
    raise ValueError("columns are not independent")


def geometric_incidence(fan, bases, s: int, t: int) -> int:
    """[s : t] from the cells' bases, 0 off the face relation and 1 on the
    empty cell: the sign that compares s's basis with t's basis plus the
    first ray w of s off t.  When those are the same vectors in another
    order, as on every simplicial cell, it is the sign of that permutation
    (Munkres, *Elements of Algebraic Topology*, section 5); otherwise the two
    determinants are compared on the first rows where s's basis is
    invertible."""
    if t not in fan.facet_ids(s):
        return 0
    if t == fan.zero_id:
        return 1
    w = next(r for r in fan.cones[s].rays if r not in fan.cones[t].rays)
    cols = (*bases[t], w)
    if sign := permutation_sign(cols, bases[s]):
        return sign
    rows, det_s = first_independent_rows(bases[s], fan.ambient_dim)
    det_c = determinant([[col[r] for col in cols] for r in rows])
    if det_c == 0:
        raise ValueError(f"no ray of cone {s} extends the basis of its facet {t}")
    return 1 if (det_s > 0) == (det_c > 0) else -1


def cell_signs(fan, signs, reference) -> dict[int, int]:
    """One sign per cell, e[t] = 1 on the empty cell and e[s] = [s : t] e[t]
    reference(s, t) for the first facet t of s, so that signs agrees with
    the reference incidence exactly when [s : t] = e[s] e[t] reference(s, t)
    on every pair."""
    e = {fan.zero_id: 1}
    for s, below in enumerate(fan._facets_of):
        if below:
            e[s] = signs(s, below[0]) * e[below[0]] * reference(s, below[0])
    return e
