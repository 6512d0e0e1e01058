"""Reference code that only the tests use: plain paths kept out of the
package because no command reaches them."""

from toricgf.genfun import LaurentPolynomial, times_binomials
from toricgf.intlinalg import Matrix, Vector, determinant, dot, rank, transpose
from toricgf.polyhedral import (Cone, DegeneratePolytope, LatticePolytope, build_fan,
                                cone_from_rays, dual_cone, support_from_ray_values)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def minor_adjugate(a: Matrix) -> Matrix:
    """The adjugate by its n^2 cofactors, each a Bareiss determinant: the
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
