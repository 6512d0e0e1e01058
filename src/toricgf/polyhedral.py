"""Cones, fans, support functions, and normal fans of lattice polytopes.

All cones are rational polyhedral cones in an ambient Z^n, kept in a double
description: a list of primitive generators and a list of integer inequality
vectors u with cone = {x : <u, x> >= 0 for all u}.  Linear span constraints
are folded into the inequality list as +-pairs.  One rule does the geometry:
a facet is the set of rays tight on one facet normal.  Each normal is the
cross product of d-1 generators and the span equations of a d-dimensional
cone, and the faces are the facets' ray sets closed under intersection.  A
simplicial cone, rays as many as its dimension, is read off its rays: n
independent rays in Z^n give their facet normals by cross products alone,
and its faces are its ray subsets.  A fan is built from ray sets and ray
bitmasks: a face of a listed cone is its ray set and its dimension, and is
hulled only when its inequalities are read; two listed cones a, b meet in a
common face when a u >= 0 on a and <= 0 on b (their own summed inequalities
first, read off per-inequality ray masks, else the facet normals of
cone(a, -b)) cuts the same face from both; and the face relation compares
ray masks one dimension apart.  The dual of a pointed cone swaps its two
descriptions.  All of it is exact and polynomial in the number of rays for
a fixed dimension.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import combinations
from operator import and_

from .intlinalg import (
    InternalCheckFailed,
    Vector,
    dot,
    cross_product,
    kernel_basis,
    primitive_vector,
    rank,
    rationally_solvable,
    solve_integral,
)


class FanAxiomViolation(Exception):
    """Two cones of a purported fan intersect in a non-face."""


class NonPointedCone(Exception):
    """A cone required to be strongly convex contains a line."""


class NotLinearOnCone(Exception):
    """Ray values on a cone admit no common linear functional."""


class NotIntegral(Exception):
    """Ray values force a rational but non-integral linear functional."""


class DegeneratePolytope(Exception):
    """The given points do not span a full-dimensional polytope."""


@dataclass(frozen=True)
class Cone:
    """A rational polyhedral cone in a double description.

    ``rays`` is the minimal generating set (the extreme rays) when the cone
    is pointed; for non-pointed cones it is a primitive generating set that
    includes both directions of each line.  ``inequalities`` is hulled from
    the rays when first read, unless it was given; ``==`` compares the rays.
    """

    ambient_dim: int
    rays: tuple[Vector, ...]
    dim: int
    pointed: bool
    _inequalities: tuple[Vector, ...] | None = field(default=None, compare=False, repr=False)

    @property
    def inequalities(self) -> tuple[Vector, ...]:
        if self._inequalities is None:
            object.__setattr__(self, "_inequalities",
                               _face(self.ambient_dim, self.rays).inequalities)
        return self._inequalities

    def contains(self, x) -> bool:
        return all(dot(u, x) >= 0 for u in self.inequalities)

    def __repr__(self):
        kind = "cone" if self.pointed else "cone*"
        return f"{kind}{list(self.rays)}"


def _hull_description(gens: list[Vector], n: int):
    """Span equations and facet normals of cone(gens).

    Returns (dim, equations, facets) where equations is an integer basis of
    the orthogonal complement of span(gens) and facets are the primitive
    inward facet normals of the cone inside its span: each is the cross
    product of d-1 independent generators and the equations, kept, turned
    inward, when no two generators lie on opposite sides of it.
    """
    if not gens:
        return 0, [tuple(r) for r in kernel_basis([], cols=n)], []
    if len(gens) == n and (facets := _simplicial_facets(gens)):
        return n, [], facets
    d = rank(gens)
    equations = kernel_basis([list(g) for g in gens]) if d < n else []
    facets = set()
    for subset in combinations(gens, d - 1):
        u = cross_product(list(subset) + equations)
        values = [dot(u, g) for g in gens]
        lo, hi = min(values), max(values)
        if lo >= 0 < hi:
            facets.add(primitive_vector(u))
        elif hi <= 0 > lo:
            facets.add(primitive_vector(tuple(-x for x in u)))
    return d, equations, sorted(facets)


def _simplicial_facets(gens: list[Vector]) -> list[Vector]:
    """The facet normals of n generators in Z^n, or [] when they are
    dependent: each n-1 of them give a cross product, turned inward by its
    dot with the one left out.  That dot is +-det, so one zero means all."""
    crosses = [cross_product(gens[:i] + gens[i + 1:]) for i in range(len(gens))]
    if dot(crosses[0], gens[0]) == 0:
        return []
    return sorted(primitive_vector(u if dot(u, g) > 0 else tuple(-x for x in u))
                  for u, g in zip(crosses, gens))


def cone_from_rays(ambient_dim: int, generators, *, require_pointed: bool = False) -> Cone:
    """Cone spanned by integer generator vectors.

    Generators are reduced to primitive form; zero vectors are dropped.  For
    pointed cones the stored ray list is the set of extreme rays.
    """
    gens = sorted({primitive_vector(tuple(g)) for g in generators
                   if any(x != 0 for x in g)})
    for g in gens:
        if len(g) != ambient_dim:
            raise ValueError(f"generator {g} does not live in dimension {ambient_dim}")
    hull = _face(ambient_dim, gens)
    if hull.dim == len(gens):
        # Independent generators: the cone is pointed and each is extreme.
        return hull
    ineqs = hull.inequalities
    pointed = rank(ineqs) == ambient_dim if ineqs else ambient_dim == 0
    if require_pointed and not pointed:
        raise NonPointedCone(f"generators {gens} span a cone containing a line")
    if not pointed:
        return replace(hull, pointed=False)
    # A generator is extreme when the inequalities tight on it have rank n - 1.
    return replace(hull, rays=tuple(
        g for g in gens if rank([u for u in ineqs if dot(u, g) == 0]) == ambient_dim - 1))


def _face(ambient_dim: int, ray_set) -> Cone:
    """The face of a pointed cone with the given ray set, equal to
    ``cone_from_rays(ambient_dim, ray_set)``: a face of a pointed cone is
    pointed and its rays are extreme, so the hull alone describes it.  The
    inequalities are the facet normals, then each span equation as a +- pair."""
    rays = sorted(ray_set)
    d, equations, facets = _hull_description(rays, ambient_dim)
    pairs = (v for e in sorted(equations) for v in (tuple(e), tuple(-x for x in e)))
    return Cone(ambient_dim=ambient_dim, rays=tuple(rays), dim=d, pointed=True,
                _inequalities=(*facets, *pairs))


def dual_cone(c: Cone) -> Cone:
    """The cone of functionals nonnegative on c.  A pointed c's two
    descriptions swap (Fukuda and Prodon, "Double description method
    revisited", 1996); only a non-pointed c is hulled."""
    n = c.ambient_dim
    if not c.pointed:
        return cone_from_rays(n, c.inequalities)
    return Cone(ambient_dim=n, rays=tuple(sorted(set(c.inequalities))), dim=n,
                pointed=c.dim == n, _inequalities=tuple(sorted(c.rays)))


def _face_ray_sets(c: Cone) -> set[frozenset[Vector]]:
    """The ray sets of the faces of a strongly convex cone, c and the zero
    cone included: the ray sets of its facets closed under intersection."""
    if not c.pointed:
        raise NonPointedCone("face lattice requires a strongly convex cone")
    facets = {frozenset(g for g in c.rays if dot(u, g) == 0) for u in c.inequalities}
    ray_sets = {frozenset(c.rays)}
    todo = list(ray_sets)
    while todo:
        rs = todo.pop()
        for facet in facets:
            meet = rs & facet
            if meet not in ray_sets:
                ray_sets.add(meet)
                todo.append(meet)
    return ray_sets


def _faces(c: Cone) -> list[tuple[Vector, ...]]:
    """The sorted rays of each face of a strongly convex cone, c and the zero
    cone included: every ray subset of a simplicial cone (as many rays as its
    dimension), else the facets' ray sets closed under intersection."""
    if len(c.rays) == c.dim:
        return [f for k in range(c.dim + 1) for f in combinations(c.rays, k)]
    return [tuple(sorted(rs)) for rs in _face_ray_sets(c)]


def face_lattice(c: Cone) -> list[tuple[Cone, int]]:
    """All faces of a strongly convex cone, including c and the zero cone."""
    faces = sorted((_face(c.ambient_dim, rs) for rs in _faces(c)),
                   key=lambda f: (f.dim, f.rays))
    return [(f, f.dim) for f in faces]


class Fan:
    """A face-closed collection of strongly convex cones with common-face
    intersections, indexed deterministically by (dim, lexicographic rays)."""

    def __init__(self, ambient_dim: int, cones: list[Cone],
                 face_relation: set[tuple[int, int]], input_rays: tuple[Vector, ...]):
        self.ambient_dim = ambient_dim
        self.cones = tuple(cones)
        self.face_relation = frozenset(face_relation)
        self.input_rays = input_rays
        self.maximal_ids = tuple(i for i, c in enumerate(cones) if c.dim == ambient_dim)
        self.ray_ids = tuple(i for i, c in enumerate(cones) if c.dim == 1)
        # Per cone id, the ids of its facets and of the cones it is a facet of.
        facets: list[list[int]] = [[] for _ in self.cones]
        cofacets: list[list[int]] = [[] for _ in self.cones]
        for fid, cid in sorted(face_relation):
            facets[cid].append(fid)
            cofacets[fid].append(cid)
        self._facets_of = tuple(map(tuple, facets))
        self._cofacets_of = tuple(map(tuple, cofacets))
        self._by_rays = {frozenset(c.rays): i for i, c in enumerate(self.cones)}
        self._zero_id = self._by_rays.get(frozenset())

    @property
    def rays(self) -> tuple[Vector, ...]:
        """Primitive generators of the 1-dimensional cones, in id order."""
        return tuple(self.cones[i].rays[0] for i in self.ray_ids)

    def facet_ids(self, cone_id: int) -> tuple[int, ...]:
        return self._facets_of[cone_id]

    def cone_id(self, rays) -> int:
        return self._by_rays[frozenset(tuple(r) for r in rays)]

    @property
    def zero_id(self) -> int:
        if self._zero_id is None:
            raise KeyError("the fan has no zero cone")
        return self._zero_id

    def __repr__(self):
        return (f"Fan(dim={self.ambient_dim}, cones={len(self.cones)}, "
                f"maximal={len(self.maximal_ids)})")


def _cuts(normals, a: Cone, b: Cone):
    """The rays of a and of b on the hyperplane of u, the sum of the normals."""
    u = [sum(col) for col in zip(*normals)] or [0] * a.ambient_dim
    return {r for r in a.rays if dot(u, r) == 0}, {r for r in b.rays if dot(u, r) == 0}


def _check_intersections(top: list[Cone]) -> None:
    """Pairwise intersections of the listed cones must be common faces (this
    propagates to all faces).  For u >= 0 on a and <= 0 on b, a & b is
    cone(S_a) & cone(S_b), S the rays on u's hyperplane: a common face when
    S_a == S_b, and {0} when either is empty.  A first u sums the listed
    inequalities v of a that are <= 0 on b and the negated ones of b that are
    <= 0 on a.  Every term is >= 0 on a and <= 0 on b, so S is the rays where
    each vanishes: ray masks Z(v) (<v, r> = 0) and N(v) (<v, r> <= 0), made
    once per v, decide it.  A pair it leaves open goes to the separation
    lemma (Cox, Little and Schenck, 1.2.13): u in relint(a^v & (-b)^v), the
    summed facet normals of cone(a, -b), must cut the same face from both."""
    bit = {r: 1 << i for i, r in enumerate(sorted({r for c in top for r in c.rays}))}

    def sign_masks(v):
        values = [(dot(v, r), b) for r, b in bit.items()]
        return sum(b for x, b in values if x == 0), sum(b for x, b in values if x <= 0)

    masks = [(sum(bit[r] for r in c.rays), [sign_masks(v) for v in c.inequalities])
             for c in top]
    for (a, (ma, sa)), (b, (mb, sb)) in combinations(zip(top, masks), 2):
        tight = reduce(and_, [zero for zero, nonpos in sa if not mb & ~nonpos]
                       + [zero for zero, nonpos in sb if not ma & ~nonpos], ~0)
        on_a, on_b = ma & tight, mb & tight
        if on_a == on_b or not on_a or not on_b:
            continue
        gens = sorted(set(a.rays) | {tuple(-x for x in r) for r in b.rays})
        on_a, on_b = _cuts(_hull_description(gens, a.ambient_dim)[2], a, b)
        if on_a != on_b:
            raise FanAxiomViolation(
                f"intersection of {a} and {b} is not a common face")


def build_fan(ambient_dim: int, rays, maximal_cones) -> Fan:
    """Assemble and validate a fan from rays and maximal ray-index sets.

    Raises NonPointedCone if a listed cone contains a line and
    FanAxiomViolation if two listed cones intersect in a non-face.
    """
    ray_list = []
    for r in rays:
        v = primitive_vector(tuple(r))
        if len(v) != ambient_dim:
            raise ValueError(f"ray {r} does not live in dimension {ambient_dim}")
        if v in ray_list:
            raise ValueError(f"duplicate ray {v}")
        ray_list.append(v)
    used = set()
    top = []
    for idxset in maximal_cones:
        idx = sorted(set(idxset))
        if not idx:
            raise ValueError("empty maximal cone")
        if any(i < 0 or i >= len(ray_list) for i in idx):
            raise ValueError(f"ray index out of range in {idxset}")
        used.update(idx)
        top.append(cone_from_rays(ambient_dim, [ray_list[i] for i in idx],
                                  require_pointed=True))
    if used != set(range(len(ray_list))):
        missing = sorted(set(range(len(ray_list))) - used)
        raise ValueError(f"rays {missing} are not used by any maximal cone")

    # The faces of the listed cones are all the cones of the fan, and a
    # listed cone is its own top face.  Any other face is pointed with its
    # ray set as extreme rays: it is its rays and dim, hulled when read.  The
    # simplicial cones go first: a face of one has its size as its dim.
    cones_by_rays = {frozenset(c.rays): c for c in top}
    for c in sorted(top, key=lambda c: len(c.rays) > c.dim):
        for face in _faces(c):
            if (key := frozenset(face)) not in cones_by_rays:
                dim = len(face) if len(c.rays) == c.dim or not face else rank(face)
                cones_by_rays[key] = Cone(ambient_dim, face, dim, pointed=True)

    _check_intersections(top)

    ordered = sorted(cones_by_rays.values(), key=lambda c: (c.dim, c.rays))
    fan_rays = {c.rays[0] for c in ordered if c.dim == 1}
    for v in ray_list:
        if v not in fan_rays:
            raise ValueError(
                f"listed ray {v} is a redundant generator, not a ray of the fan")
    # In a fan, a cone one dimension lower whose rays are among c's is a
    # face of c: both are faces of maximal cones meeting in a common face.
    bit = {r: 1 << i for i, r in enumerate(ray_list)}
    masks = [sum(bit[r] for r in c.rays) for c in ordered]
    dims = [c.dim for c in ordered]
    relation = {(j, i) for i, d in enumerate(dims)
                for j in range(bisect_left(dims, d - 1), bisect_left(dims, d))
                if not masks[j] & ~masks[i]}
    return Fan(ambient_dim, ordered, relation, tuple(ray_list))


@dataclass
class CompletenessReport:
    complete: bool
    witness: str | None = None


def check_complete(f: Fan) -> CompletenessReport:
    """A fan is complete iff every ridge lies in exactly two maximal cones:
    by the fan axioms, which ``build_fan`` checks, those lie on opposite
    sides of it and an interior point lies in one maximal cone only, so the
    support less the codimension-2 cones is open and closed in R^n less
    them (De Loera, Rambau and Santos, *Triangulations*, ch. 4).  Both
    axiom consequences are checked, and raise InternalCheckFailed."""
    n = f.ambient_dim
    if not f.maximal_ids:
        return CompletenessReport(False, "no full-dimensional cones")
    parents = {i: [] for i, c in enumerate(f.cones) if c.dim == n - 1}
    for cid in f.maximal_ids:
        for fid in f.facet_ids(cid):
            parents[fid].append(cid)
    for i, ids in parents.items():
        if len(ids) != 2:
            return CompletenessReport(
                False, f"ridge {list(f.cones[i].rays)} lies in {len(ids)} maximal cone(s)")
    for i, (a, b) in parents.items():
        ridge = f.cones[i].rays
        u = next(u for u in f.cones[a].inequalities if all(dot(u, r) == 0 for r in ridge))
        w = next(r for r in f.cones[b].rays if r not in ridge)
        if dot(u, w) >= 0:
            raise InternalCheckFailed(
                f"the maximal cones on ridge {list(ridge)} lie on one side of it")
    first, *others = (f.cones[j] for j in f.maximal_ids)
    point = [sum(col) for col in zip(*first.rays)]
    if any(c.contains(point) for c in others):
        raise InternalCheckFailed(f"an interior point of {first} lies in another maximal cone")
    return CompletenessReport(True)


@dataclass
class SupportFunction:
    """Integral piecewise linear data on a fan: one integer per ray, plus a
    representative linear functional per cone agreeing with those values."""

    fan: Fan
    ray_values: dict[Vector, int]
    linear_parts: dict[int, Vector]

    def value(self, ray: Vector) -> int:
        return self.ray_values[tuple(ray)]

    def linear_part(self, cone_id: int) -> Vector:
        return self.linear_parts[cone_id]


def support_from_ray_values(f: Fan, values) -> SupportFunction:
    """An integral linear functional on every cone of the fan, solved on the
    cones that are faces of no other and inherited by their faces.

    ``values`` is aligned with the ray list the fan was built from.  Raises
    NotLinearOnCone when no common functional exists on some cone and
    NotIntegral when a functional exists over Q but not over Z.
    """
    values = list(values)
    if len(values) != len(f.input_rays):
        raise ValueError(
            f"expected {len(f.input_rays)} ray values, got {len(values)}")
    by_ray = dict(zip(f.input_rays, (int(v) for v in values)))
    # A cone with a parent takes the parent's functional, which restricts to
    # one on the face; only the cones that are faces of none get solved.  Ids
    # grow with dimension, so every parent is done before its faces.
    parent = dict(sorted(f.face_relation, reverse=True))
    parts: dict[int, Vector] = {}
    for i in reversed(range(len(f.cones))):
        if i in parent:
            parts[i] = parts[parent[i]]
            continue
        c = f.cones[i]
        a = [list(r) for r in c.rays]
        b = [by_ray[r] for r in c.rays]
        h = solve_integral(a, b)
        if h is None:
            if rationally_solvable(a, b):
                raise NotIntegral(
                    f"values {b} on cone {list(c.rays)} need a non-integral functional")
            raise NotLinearOnCone(
                f"values {b} on cone {list(c.rays)} admit no linear functional")
        parts[i] = h
    # Every parent's functional must agree with the one its face inherited:
    # both take the ray values on the face's rays.
    for fid, cid in f.face_relation:
        for r in f.cones[fid].rays:
            if dot(parts[fid], r) != dot(parts[cid], r):
                raise InternalCheckFailed(
                    f"linear parts of cones {fid} and {cid} disagree on ray {r}")
    return SupportFunction(fan=f, ray_values=by_ray, linear_parts=parts)


@dataclass(frozen=True)
class LatticePolytope:
    """Full-dimensional lattice polytope given by its vertex set."""

    ambient_dim: int
    vertices: tuple[Vector, ...]


def _normal_cone(point: Vector, points: list[Vector], n: int) -> Cone:
    ineqs = [tuple(p[i] - point[i] for i in range(n))
             for p in points if p != point]
    return dual_cone(cone_from_rays(n, ineqs))


def lattice_polytope(ambient_dim: int, points) -> LatticePolytope:
    """Canonical polytope from a point list: keeps exactly the extreme points.

    Raises DegeneratePolytope when the points do not span dimension n.
    """
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
    vertices = [p for p in pts if cone_from_rays(  # p's tangent cone is pointed
        ambient_dim, [[q[i] - p[i] for i in range(ambient_dim)] for q in pts]).pointed]
    return LatticePolytope(ambient_dim, tuple(sorted(vertices)))


def normal_fan_of_polytope(p: LatticePolytope) -> tuple[Fan, SupportFunction]:
    """Inner normal fan of a lattice polytope with its support data.

    The maximal cone attached to a vertex w consists of the directions
    minimized at w; its linear part equals -w, so the shifted dual cone is
    the tangent cone of the polytope at w.
    """
    n = p.ambient_dim
    verts = list(p.vertices)
    if len(verts) < n + 1:
        raise DegeneratePolytope("a full-dimensional polytope needs >= n+1 vertices")
    cones = [_normal_cone(w, verts, n) for w in verts]
    if any(c.dim != n for c in cones):
        raise InternalCheckFailed("a vertex has a lower-dimensional normal cone")
    ray_list: list[Vector] = sorted({r for c in cones for r in c.rays})
    index = {r: i for i, r in enumerate(ray_list)}
    maximal = [[index[r] for r in c.rays] for c in cones]
    fan = build_fan(n, ray_list, maximal)
    values = [-min(dot(w, r) for w in verts) for r in ray_list]
    support = support_from_ray_values(fan, values)
    return fan, support
