"""Cones, fans, support functions, and normal fans of lattice polytopes.

All cones are rational polyhedral cones in an ambient Z^n, kept in a double
description: a list of primitive generators and a list of integer inequality
vectors u with cone = {x : <u, x> >= 0 for all u}.  Linear span constraints
are folded into the inequality list as +-pairs.  One rule does the geometry:
a facet is the set of rays tight on one facet normal.  Each normal is the
cross product of d-1 generators and the span equations of a d-dimensional
cone, and the faces are the facets' ray sets closed under intersection.  A
simplicial cone, rays as many as its dimension, is read off its rays: its
faces are the submasks of its ray mask, its facets those one ray short.  A
fan is built from ray sets and ray bitmasks, and a listed cone of n
independent rays in Z^n is read once into a ``Simplex`` record: each
ridge's cross product, made once and shared by the two cones on it, the
determinant, whose sign turns each cross product into an inward facet
normal, and those normals.  The records feed the support solve (Cramer's
rule on the record) and the ridge normals of completeness (the normal
opposite the ray left out).  A face of a listed cone is its ray set and its
dimension, and is hulled only when its inequalities are read.  A lattice polytope's facets
are enumerated once, one cross product per n points, and each is kept
with the mask of the points on it: the vertices, the edges and so the
tangent cones are read off those masks, with no hull.  A normal fan's
listed cones are the duals of the tangent cones, handed to the build with
no hull.

Completeness is three ridge tests, made in one pass over the fan's face
relation: every ridge lies in exactly two maximal cones, their inward
normals on it are opposite, and one interior point lies in one maximal
cone only.  They need no fan axioms, so when every listed cone has a
record the pass also proves the axioms, and the pair check is skipped.
Otherwise two listed cones a, b meet in a common face when a u >= 0 on a
and <= 0 on b (their own summed inequalities first, read off
per-inequality ray masks, else the facet normals of cone(a, -b)) cuts the
same face from both; and the face relation of a cone that is not
simplicial compares ray masks one dimension apart.  Any other cone keeps
the general paths.  The dual of a pointed cone swaps its two descriptions.
All of it is exact and polynomial in the number of rays for a fixed
dimension.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations
from operator import add, index, neg, sub

from .intlinalg import (
    InternalCheckFailed,
    Vector,
    cramer,
    cross_product,
    dot,
    dots,
    kernel_basis,
    primitive_vector,
    rank,
    rationally_solvable,
    smith_normal_form,
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


@dataclass(slots=True, unsafe_hash=True)
class Cone:
    """A rational polyhedral cone in a double description.

    ``rays`` is the minimal generating set (the extreme rays) when the cone
    is pointed; for non-pointed cones it is a primitive generating set that
    includes both directions of each line.  ``inequalities`` is hulled from
    the rays when first read, unless it was given; ``==`` and the hash read
    the other fields.  Not frozen: a frozen cone costs 4x as much to make.
    """

    ambient_dim: int
    rays: tuple[Vector, ...]
    dim: int
    pointed: bool
    _inequalities: tuple[Vector, ...] | None = field(default=None, compare=False, repr=False)

    @property
    def inequalities(self) -> tuple[Vector, ...]:
        if self._inequalities is None:
            self._inequalities = _face(self.ambient_dim, self.rays).inequalities
        return self._inequalities

    def contains(self, x) -> bool:
        return min(dots(x, self.inequalities), default=0) >= 0

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
    snf = smith_normal_form(gens)
    d = sum(1 for x in snf.diagonal() if x)
    equations = [tuple(col) for col in zip(*snf.V)][d:]
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
    dependent: the sorted normals of their ``_simplex`` record."""
    rec = _simplex(gens, range(len(gens)), {})
    return sorted(rec.normals) if rec else []


class Simplex:
    """A cone of n independent rays in Z^n, read off its rays once.

    ``ids`` index the rays in their sorted order; ``crosses[k]`` is the cross
    product of the rays but the k-th, ``normals[k]`` the primitive inward
    normal of the facet opposite it, and ``det`` the rays' determinant.
    Since <crosses[k], r_k> = (-1)^k det, the sign of det turns every cross
    product inward with no further dot product.  A plain class, since a
    ``typing.NamedTuple`` takes about 0.2 ms to define at import.
    """

    __slots__ = ("ids", "crosses", "normals", "det")

    def __init__(self, ids, crosses, normals, det):
        self.ids, self.crosses, self.normals, self.det = ids, crosses, normals, det


def _simplex(rays, idx, ridges: dict) -> Simplex | None:
    """The record of the rays ``rays[i]``, i in ``idx``, or None when they
    are dependent.  ``ridges`` maps a ridge's ray mask (bit i for
    ``rays[i]``) to its cross product u and u's primitive vector, so a
    ridge is crossed once for the two cones on it: its rays, sorted, are
    the same rows in both."""
    ids = sorted(idx, key=rays.__getitem__)
    gens = [rays[i] for i in ids]
    mask = 0
    for i in ids:
        mask |= 1 << i
    crosses, prims = [], []
    for k, i in enumerate(ids):
        ridge = ridges.get(key := mask ^ (1 << i))
        if ridge is None:
            u = cross_product(gens[:k] + gens[k + 1:])
            ridge = ridges[key] = u, primitive_vector(u) if any(u) else u
        crosses.append(ridge[0])
        prims.append(ridge[1])
    det = dot(crosses[0], gens[0])
    if not det:
        return None
    # The k-th cross product is inward when (-1)^k det > 0: the odd ones
    # flip when det > 0, the even ones when det < 0.
    odd = det > 0
    normals = tuple([tuple(map(neg, p)) if k & 1 == odd else p for k, p in enumerate(prims)])
    return Simplex(tuple(ids), tuple(crosses), normals, det)


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


def _submasks(mask: int) -> list[int]:
    """The proper submasks of a ray mask, descending, 0 last: the ray masks
    of a simplicial cone's proper faces."""
    out, s = [], mask
    while s:
        s = (s - 1) & mask
        out.append(s)
    return out


def _faces(c: Cone) -> list[tuple[Vector, ...]]:
    """The sorted rays of each face of a strongly convex cone, c and the zero
    cone included: every ray subset of a simplicial cone (as many rays as its
    dimension), read off the submasks of its rays, else the facets' ray sets
    closed under intersection."""
    if len(c.rays) == c.dim:
        return [c.rays] + [tuple(r for k, r in enumerate(c.rays) if s >> k & 1)
                           for s in _submasks((1 << c.dim) - 1)]
    return [tuple(sorted(rs)) for rs in _face_ray_sets(c)]


def face_lattice(c: Cone) -> list[tuple[Cone, int]]:
    """All faces of a strongly convex cone, including c and the zero cone."""
    faces = sorted((_face(c.ambient_dim, rs) for rs in _faces(c)),
                   key=lambda f: (f.dim, f.rays))
    return [(f, f.dim) for f in faces]


class Fan:
    """A face-closed collection of strongly convex cones with common-face
    intersections, indexed deterministically by (dim, lexicographic rays).

    ``facets[i]`` lists, ascending, the ids of cone i's facets.
    ``mask_ids`` maps the ray mask that ``build_fan`` keyed each cone by
    (bit k for ``input_rays[k]``) to its id, in id order; ``masks[i]`` is
    cone i's mask.  ``simplices`` maps the id of each listed cone of n
    independent rays to its ``Simplex`` record, read once when the fan was
    built."""

    def __init__(self, ambient_dim: int, cones: list[Cone], facets: list[list[int]],
                 input_rays: tuple[Vector, ...], simplices: dict[int, Simplex],
                 mask_ids: dict[int, int]):
        self.ambient_dim = ambient_dim
        self.cones = tuple(cones)
        self.input_rays = input_rays
        self.simplices = simplices
        self.masks = tuple(mask_ids)
        self._mask_ids = mask_ids
        # Ids grow with dimension, so each dimension's cones are a range.
        dims = [c.dim for c in cones]
        self.maximal_ids = tuple(range(bisect_left(dims, ambient_dim), len(dims)))
        self.ray_ids = tuple(range(bisect_left(dims, 1), bisect_left(dims, 2)))
        # Per cone id, the ids of its facets and of the cones it is a facet of.
        cofacets: list[list[int]] = [[] for _ in dims]
        for cid, ids in enumerate(facets):
            for fid in ids:
                cofacets[fid].append(cid)
        self._facets_of = tuple(map(tuple, facets))
        self._cofacets_of = tuple(map(tuple, cofacets))
        self._zero_id = 0 if dims and not dims[0] else None

    @property
    def rays(self) -> tuple[Vector, ...]:
        """Primitive generators of the 1-dimensional cones, in id order."""
        return tuple(self.cones[i].rays[0] for i in self.ray_ids)

    def facet_ids(self, cone_id: int) -> tuple[int, ...]:
        return self._facets_of[cone_id]

    @cached_property
    def face_relation(self) -> frozenset[tuple[int, int]]:
        """The pairs (facet id, cone id), made when first read."""
        return frozenset((fid, cid) for cid, ids in enumerate(self._facets_of) for fid in ids)

    def cone_id(self, rays) -> int:
        return self._mask_ids[sum(1 << self.input_rays.index(r) for r in set(map(tuple, rays)))]

    @cached_property
    def _ridge_verdict(self) -> CompletenessReport | InternalCheckFailed | None:
        """``_ridge_failure(self)``, made once by whoever reads it first."""
        return _ridge_failure(self)

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


def _sign_masks(normals, bit: dict) -> list[tuple[int, int]]:
    """Per normal v, the masks Z(v) of the rays with <v, r> = 0 and P(v) of
    those with <v, r> > 0, over the rays and bits of ``bit``."""
    rays, bits = list(bit), list(bit.values())
    out = []
    for v in normals:
        zero = pos = 0
        for b, x in zip(bits, dots(v, rays)):
            if x > 0:
                pos |= b
            elif x == 0:
                zero |= b
        out.append((zero, pos))
    return out


def _check_intersections(top: list[Cone], rays=None) -> None:
    """Pairwise intersections of the listed cones must be common faces (this
    propagates to all faces).  For u >= 0 on a and <= 0 on b, a & b is
    cone(S_a) & cone(S_b), S the rays on u's hyperplane: a common face when
    S_a == S_b, and {0} when either is empty.  A first u sums the listed
    inequalities v of a that are <= 0 on b and the negated ones of b that are
    <= 0 on a.  Every term is >= 0 on a and <= 0 on b, so S is the rays where
    each vanishes: ray masks Z(v) (<v, r> = 0) and P(v) (<v, r> > 0), made
    once per v, decide it; v is <= 0 on b when b's mask misses P(v).
    Ray i of ``rays`` (by default the sorted rays of ``top``) has bit i.  A
    pair the masks leave open goes to the separation lemma (Cox, Little and
    Schenck, 1.2.13): u in relint(a^v & (-b)^v), the summed facet normals of
    cone(a, -b), must cut the same face from both."""
    if rays is None:
        rays = sorted({r for c in top for r in c.rays})
    bit = {r: 1 << i for i, r in enumerate(rays)}
    masks = [(sum(bit[r] for r in c.rays), _sign_masks(c.inequalities, bit)) for c in top]
    for (a, (ma, sa)), (b, (mb, sb)) in combinations(zip(top, masks), 2):
        tight = -1
        for zero, pos in sa:
            if not mb & pos:
                tight &= zero
        for zero, pos in sb:
            if not ma & pos:
                tight &= zero
        on_a, on_b = ma & tight, mb & tight
        if on_a == on_b or not on_a or not on_b:
            continue
        gens = sorted(set(a.rays) | {tuple(-x for x in r) for r in b.rays})
        on_a, on_b = _cuts(_hull_description(gens, a.ambient_dim)[2], a, b)
        if on_a != on_b:
            raise FanAxiomViolation(
                f"intersection of {a} and {b} is not a common face")


def _facet_masks(mask: int, rays, bit: dict) -> list[int]:
    """The ray masks of a simplicial cone's facets, its mask less one of its
    sorted rays, the last first: in id order, as ids sort by rays."""
    return [mask ^ bit[r] for r in reversed(rays)]


def build_fan(ambient_dim: int, rays, maximal_cones) -> Fan:
    """Assemble and validate a fan from rays and maximal ray-index sets.

    Raises ValueError if a maximal cone is listed twice, NonPointedCone if
    a listed cone contains a line and FanAxiomViolation if two listed cones
    intersect in a non-face.  A listed cone of n independent rays is read
    off its ``Simplex`` record, and its faces off the submasks of its ray
    mask; any other is hulled.  When every listed cone has a record, the
    three ridge tests (every ridge in exactly two maximal cones, their
    inward normals on it opposite, one interior point in one maximal cone
    only) run first: if they pass, the fan is complete and the pair check
    is skipped.  The fan keeps that verdict for ``check_complete``, and
    keeps each cone's ray mask, bit k for the k-th listed ray.
    """
    bit = {}
    for r in rays:
        v = primitive_vector(tuple(r))
        if len(v) != ambient_dim:
            raise ValueError(f"ray {r} does not live in dimension {ambient_dim}")
        if v in bit:
            raise ValueError(f"duplicate ray {v}")
        bit[v] = 1 << len(bit)
    ray_list = list(bit)
    used = set()
    ridges, listed, records = {}, {}, {}
    for idxset in maximal_cones:
        idx = sorted(set(idxset))
        if not idx:
            raise ValueError("empty maximal cone")
        if idx[0] < 0 or idx[-1] >= len(ray_list):
            raise ValueError(f"ray index out of range in {idxset}")
        used.update(idx)
        # n independent rays in Z^n are read off their record: pointed,
        # extreme, with the record's normals as their inequalities.
        rec = _simplex(ray_list, idx, ridges) if len(idx) == ambient_dim else None
        if rec is None:
            c = cone_from_rays(ambient_dim, [ray_list[i] for i in idx], require_pointed=True)
        else:
            c = Cone(ambient_dim, tuple([ray_list[i] for i in rec.ids]), ambient_dim,
                     True, tuple(sorted(rec.normals)))
        mask = sum(bit[r] for r in c.rays)
        if mask in listed:
            raise ValueError(f"maximal cone {c} is listed twice")
        listed[mask] = c
        if rec is not None:
            records[mask] = rec
    if used != set(range(len(ray_list))):
        missing = sorted(set(range(len(ray_list))) - used)
        raise ValueError(f"rays {missing} are not used by any maximal cone")
    return _fan(ambient_dim, ray_list, bit, listed, records)


def _fan(n: int, ray_list: list[Vector], bit: dict, listed: dict[int, Cone],
         records: dict[int, Simplex]) -> Fan:
    """The fan of the listed cones, keyed by ray mask (``bit[r]`` for ray
    r), with their records, checked by the ridge pass or the pair check."""
    # The faces of the listed cones are all the cones of the fan, keyed by
    # ray mask, and a listed cone is its own top face.  Any other face is
    # pointed with its ray set as extreme rays: it is its rays and dim,
    # hulled when read.  The faces of a simplicial cone are the submasks of
    # its mask, of their size as dim; they go first.
    cones = dict(listed)
    for mask, c in listed.items():
        if len(c.rays) == c.dim:
            for s in _submasks(mask):
                if s not in cones:
                    cones[s] = Cone(n, tuple([r for r in c.rays if bit[r] & s]), s.bit_count(),
                                    True)
    for c in listed.values():
        if len(c.rays) > c.dim:
            for rs in _face_ray_sets(c):
                mask = sum(bit[r] for r in rs)
                if mask not in cones:
                    cones[mask] = Cone(n, tuple(sorted(rs)), rank(rs) if rs else 0, True)

    order = [m for _, _, m in sorted((c.dim, c.rays, m) for m, c in cones.items())]
    ordered = [cones[m] for m in order]
    id_of = {m: i for i, m in enumerate(order)}
    # A simplicial cone's facets are its ray subsets one short.  For any
    # other cone, in a fan, a cone one dimension lower whose rays are among
    # c's is a face of c: both are faces of maximal cones meeting in a
    # common face.
    dims = [c.dim for c in ordered]
    facets = []
    for mask, c in zip(order, ordered):
        if len(c.rays) == c.dim:
            facets.append([id_of[m] for m in _facet_masks(mask, c.rays, bit)])
        else:
            facets.append([j for j in range(bisect_left(dims, c.dim - 1),
                                            bisect_left(dims, c.dim))
                           if not order[j] & ~mask])
    fan = Fan(n, ordered, facets, tuple(ray_list),
              {id_of[m]: rec for m, rec in records.items()}, id_of)
    if len(records) < len(listed) or fan._ridge_verdict is not None:
        _check_intersections(list(listed.values()), ray_list)
    for v in ray_list:
        if bit[v] not in cones:
            raise ValueError(
                f"listed ray {v} is a redundant generator, not a ray of the fan")
    return fan


@dataclass
class CompletenessReport:
    complete: bool
    witness: str | None = None


def check_complete(f: Fan) -> CompletenessReport:
    """A fan is complete iff every ridge lies in exactly two maximal cones:
    by the fan axioms, which ``build_fan`` checks, those lie on opposite
    sides of it and an interior point lies in one maximal cone only.  The
    three ridge tests run once per fan: this reads the verdict of the pass
    that ``build_fan`` ran, or runs it now.  A failed side or one-point
    test raises InternalCheckFailed."""
    failure = f._ridge_verdict
    if isinstance(failure, InternalCheckFailed):
        raise failure
    return failure or CompletenessReport(True)


def _ridge_failure(f: Fan) -> CompletenessReport | InternalCheckFailed | None:
    """The first of the three ridge tests that f fails, or None: the count
    over all ridges in id order, as a report with its witness, then the
    sides in id order and the one point, as the InternalCheckFailed that
    ``check_complete`` raises.

    Passing all three makes the maximal cones a complete fan, with no fan
    axiom assumed: the pseudo-manifold characterisation of triangulations
    (De Loera, Rambau and Santos, *Triangulations*, ch. 4).  Sketch: let
    N(x) count the maximal cones that contain x.  N is constant off the
    codimension-2 cones: off them and off the meets of ridges on distinct
    hyperplanes, a set of codimension 2 that leaves R^n connected, a path
    crosses ridges only in their relative interiors, and there the cones
    on the point pair off by ridge, one on each side, so N is the same on
    both sides.  N is 1 at the test point, which lies inside the first
    cone and in no other.  So the cones cover R^n, with disjoint interiors.
    The same count in R^n / span F, for a face F, shows that the cones on F
    cover a neighbourhood of relint F, so a cone that meets relint F has F
    as a face: any two meet in a common face.  Conversely a complete fan
    passes all three tests."""
    if not f.maximal_ids:
        return CompletenessReport(False, "no full-dimensional cones")
    ridges = range(bisect_left(f.cones, f.ambient_dim - 1, key=lambda c: c.dim),
                   f.maximal_ids[0])
    for i in ridges:
        if len(ids := f._cofacets_of[i]) != 2:
            return CompletenessReport(
                False, f"ridge {list(f.cones[i].rays)} lies in {len(ids)} maximal cone(s)")
    for i in ridges:
        a, b = f._cofacets_of[i]
        if any(map(add, _ridge_normal(f, a, i), _ridge_normal(f, b, i))):
            return InternalCheckFailed(
                f"the maximal cones on ridge {list(f.cones[i].rays)} lie on one side of it")
    first, *others = (f.cones[j] for j in f.maximal_ids)
    point = [sum(col) for col in zip(*first.rays)]
    if any(c.contains(point) for c in others):
        return InternalCheckFailed(f"an interior point of {first} lies in another maximal cone")
    return None


def _ridge_normal(f: Fan, a: int, ridge: int) -> Vector:
    """The primitive inward normal of maximal cone a on its facet of id
    ``ridge``: for a simplicial listed cone, its record's normal opposite
    the ray left out, read by the facet's position among a's facets; else
    the inequality of a that vanishes on the ridge.  Ids order cones of one
    dimension by their sorted rays, and leaving out a later ray of a gives
    an earlier tuple, so a's facets, ascending, leave out its last ray
    first."""
    rec = f.simplices.get(a)
    if rec is None:
        rays = f.cones[ridge].rays
        return next(u for u in f.cones[a].inequalities if all(dot(u, r) == 0 for r in rays))
    return rec.normals[-1 - f._facets_of[a].index(ridge)]


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
    ValueError for a value that is not an integer, NotLinearOnCone when no
    common functional exists on some cone and NotIntegral when a functional
    exists over Q but not over Z.
    """
    values = list(values)
    if len(values) != len(f.input_rays):
        raise ValueError(
            f"expected {len(f.input_rays)} ray values, got {len(values)}")
    by_ray = {}
    for r, v in zip(f.input_rays, values):
        try:
            by_ray[r] = index(v)
        except TypeError:
            raise ValueError(f"ray value {v!r} is not an integer") from None
    # A cone with a parent takes the parent's functional, which restricts to
    # one on the face; only the cones that are faces of none get solved, a
    # simplicial listed cone's off its record.  Ids grow with dimension, so
    # every parent is done before its faces.  Each solved functional is
    # checked to take the values on its cone's rays; a face's rays are among
    # its parent's, so then every face/parent pair agrees too.
    cones, cofacets, simplices = f.cones, f._cofacets_of, f.simplices
    parts: dict[int, Vector] = {}
    for i in reversed(range(len(cones))):
        if up := cofacets[i]:
            parts[i] = parts[up[0]]
            continue
        rays = cones[i].rays
        b = [by_ray[r] for r in rays]
        rec = simplices.get(i)
        h = cramer(rec.crosses, rec.det, b) if rec else solve_integral(
            a := [list(r) for r in rays], b)
        if h is None:
            if rec is not None or rationally_solvable(a, b):
                raise NotIntegral(
                    f"values {b} on cone {list(rays)} need a non-integral functional")
            raise NotLinearOnCone(
                f"values {b} on cone {list(rays)} admit no linear functional")
        if dots(h, rays) != b:
            r, v = next((r, v) for r, v in zip(rays, b) if dot(h, r) != v)
            raise InternalCheckFailed(
                f"linear part {list(h)} of cone {list(rays)} takes {dot(h, r)} "
                f"on ray {r}, not its value {v}")
        parts[i] = h
    return SupportFunction(fan=f, ray_values=by_ray, linear_parts=parts)


@dataclass(frozen=True)
class LatticePolytope:
    """Full-dimensional lattice polytope: its vertices, sorted, and in the
    same order their tangent cones, the cones the other points span from
    each vertex, read off the facets tight at it."""

    ambient_dim: int
    vertices: tuple[Vector, ...]
    tangent_cones: tuple[Cone, ...] = field(compare=False, repr=False)


def _lattice_point(p) -> Vector:
    """The point p as an integer tuple; ValueError names a point with a
    coordinate that ``operator.index`` refuses, so none is truncated."""
    try:
        return tuple(map(index, p))
    except TypeError:
        raise ValueError(f"point {list(p)} has a coordinate that is not an integer") from None


def _polytope_facets(pts: list[Vector], n: int) -> list[tuple[Vector, int]]:
    """The facets of conv(pts), as (primitive inward normal u, mask of the
    points with <u, p> minimal, bit j for ``pts[j]``), or [] when the
    points span less than dimension n.  Each n points with independent
    differences give one candidate hyperplane, crossed once: it is a facet
    when every point lies on one side of it."""
    facets, seen = [], set()
    for subset in combinations(pts, n):
        p0 = subset[0]
        u = cross_product([[q[i] - p0[i] for i in range(n)] for q in subset[1:]])
        if not any(u):
            continue
        u = primitive_vector(u)
        c = dot(u, p0)
        if (u, c) in seen:
            continue
        seen.update(((u, c), (tuple(map(neg, u)), -c)))
        values = dots(u, pts)
        lo, hi = min(values), max(values)
        if c == hi > lo:
            u = tuple(map(neg, u))
        elif not c == lo < hi:
            continue
        facets.append((u, sum(1 << j for j, x in enumerate(values) if x == c)))
    return facets


def lattice_polytope(ambient_dim: int, points) -> LatticePolytope:
    """Canonical polytope from a point list: keeps exactly its vertices,
    with their tangent cones, from one enumeration of the facets.

    Each facet is its inward normal and its point mask, and the smallest
    face holding some points is the meet of the masks of the facets tight
    at all of them (every point, when none is).  A point is a vertex when
    its smallest face holds it alone, that is when the normals tight at it
    have rank n; two vertices span an edge when their smallest face holds
    no third vertex.  A vertex's tangent cone has the edge directions from
    it as its extreme rays and the normals tight at it as its facet
    normals: the dual of its normal cone, with no hull.  Raises
    DegeneratePolytope when the points do not span dimension n, and
    ValueError for a point of another dimension or with a coordinate that
    is not an integer.
    """
    n = ambient_dim
    pts = sorted({_lattice_point(p) for p in points})
    if not pts:
        raise DegeneratePolytope("no points given")
    for p in pts:
        if len(p) != n:
            raise ValueError(f"point {p} does not live in dimension {n}")
    facets = _polytope_facets(pts, n)
    if not facets:
        base = pts[0]
        d = rank([[p[i] - base[i] for i in range(n)] for p in pts[1:]])
        raise DegeneratePolytope(f"points span dimension {d} < {n}")
    # on[j]: the facets tight at pts[j], bit k for facets[k].
    on = [sum(1 << k for k, (_, mask) in enumerate(facets) if mask >> j & 1)
          for j in range(len(pts))]

    def face(tight: int) -> int:
        """The point mask of the face cut by the facets in ``tight``."""
        out = (1 << len(pts)) - 1
        for k, (_, mask) in enumerate(facets):
            if tight >> k & 1:
                out &= mask
        return out

    ids = [j for j in range(len(pts)) if face(on[j]) == 1 << j]
    vertex_mask = sum(1 << j for j in ids)
    cones = []
    for j in ids:
        p = pts[j]
        rays = sorted(primitive_vector(tuple(map(sub, pts[i], p))) for i in ids
                      if i != j and face(on[j] & on[i]) & vertex_mask == 1 << i | 1 << j)
        normals = sorted(u for k, (u, _) in enumerate(facets) if on[j] >> k & 1)
        cones.append(Cone(n, tuple(rays), n, True, tuple(normals)))
    return LatticePolytope(n, tuple(pts[j] for j in ids), tuple(cones))


def normal_fan_of_polytope(p: LatticePolytope) -> tuple[Fan, SupportFunction]:
    """Inner normal fan of a lattice polytope with its support data.

    The maximal cone attached to a vertex w consists of the directions
    minimized at w, the dual of the tangent cone that ``lattice_polytope``
    read at w; its linear part equals -w, so the shifted dual cone is that
    tangent cone.
    """
    n = p.ambient_dim
    verts = list(p.vertices)
    if len(verts) < n + 1:
        raise DegeneratePolytope("a full-dimensional polytope needs >= n+1 vertices")
    cones = [dual_cone(c) for c in p.tangent_cones]
    if any(c.dim != n for c in cones):
        raise InternalCheckFailed("a vertex has a lower-dimensional normal cone")
    ray_list: list[Vector] = sorted({r for c in cones for r in c.rays})
    # The dual cones are the fan's listed cones, as build_fan would make
    # them: those of n rays with their records, every other one as it is,
    # with no second hull.
    index = {r: i for i, r in enumerate(ray_list)}
    bit = {r: 1 << i for r, i in index.items()}
    ridges, listed, records = {}, {}, {}
    for c in cones:
        mask = sum(bit[r] for r in c.rays)
        listed[mask] = c
        if len(c.rays) == n and (rec := _simplex(ray_list, [index[r] for r in c.rays], ridges)):
            records[mask] = rec
    fan = _fan(n, ray_list, bit, listed, records)
    values = [-min(dot(w, r) for w in verts) for r in ray_list]
    support = support_from_ray_values(fan, values)
    return fan, support
