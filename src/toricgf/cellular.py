"""Cell structures on the unit sphere induced by complete fans.

Each nonzero cone of the fan meets the sphere in one closed cell of
dimension dim(cone) - 1; the empty cell sits in degree -1 and carries the
augmentation.  A simplicial cell's basis is its rays, oriented on a
maximal cone by the sign of the determinant its fan's ``Simplex`` record
holds, or else of a minor.  An incidence number
is the sign of a permutation of the cell's basis, as on every simplicial
cell, or else compares two determinants.  Incidences are computed only on
the face relation, where the boundary matrices have their sole nonzero
entries: all in one pass at the first d∘d = 0 check, once per complex.  The
homology of a subcomplex first removes free pairs, a cell and a facet of it
with unit incidence where one of the two has no other live neighbour, on
bitmasks of cone ids; the cells left keep their own boundary entries, and
only their matrices reach the Smith normal form, none when none is left.
``chain_complex`` builds a whole subcomplex's matrices, the reference.
In R^2 and R^3 the sweep takes ``component_homology`` instead: by Alexander
duality in S^1 or S^2, two component counts on ray bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .intlinalg import (
    InternalCheckFailed,
    determinant,
    greedy_basis,
    invariant_factors,
    rank_mod_p,
)
from .polyhedral import Fan


class NotFaceClosed(Exception):
    """The selected cone ids do not form a subcomplex."""


class NoIncidenceWitness(Exception):
    """A facet's basis plus a ray of the cone off the facet is singular,
    which means the rank computations behind the fan are wrong."""


@dataclass
class CellComplex:
    """Regular cell decomposition of S^(n-1) coming from a fan.

    ``basis`` holds, per nonzero cone, the ordered spanning rays used to
    orient its cell.  Any consistent choice works; this one is deterministic
    so that boundary matrices are reproducible.
    """

    fan: Fan
    basis: dict[int, tuple]
    cells_by_degree: dict[int, tuple[int, ...]]
    _incidence: dict[tuple[int, int], int] = field(default_factory=dict, repr=False)
    _orientation: dict[int, tuple] = field(default_factory=dict, repr=False)
    _boundary_checked: bool = field(default=False, repr=False)
    _masks: tuple[list[int], list[int]] | None = field(default=None, repr=False)
    _graphs: tuple | None = field(default=None, repr=False)

    @property
    def empty_cell(self) -> int:
        return self.fan.zero_id


def cell_complex(f: Fan) -> CellComplex:
    """Build the sphere cell complex of a complete fan."""
    n = f.ambient_dim
    basis = {}
    cells: dict[int, list[int]] = {d: [] for d in range(-1, n)}
    cells[-1].append(f.zero_id)
    for i, c in enumerate(f.cones):
        if c.dim == 0:
            continue
        b = _cell_basis(c)
        if c.dim == n and n >= 2 and _orientation(f, i, b) < 0:
            b[0], b[1] = b[1], b[0]
        basis[i] = tuple(b)
        cells[c.dim - 1].append(i)
    return CellComplex(fan=f, basis=basis,
                       cells_by_degree={d: tuple(ids) for d, ids in cells.items()})


def _cell_basis(c) -> list:
    """A simplicial cone's rays; any other cone's first independent rays."""
    return list(c.rays) if len(c.rays) == c.dim else greedy_basis(c.rays)


def _orientation(f: Fan, i: int, basis) -> int:
    """A number with the sign of det(basis) for a maximal cone: its record's
    determinant for a simplicial listed cone, whose basis is its rays in
    order, else that determinant itself."""
    rec = f.simplices.get(i)
    return _minor(basis, range(f.ambient_dim)) if rec is None else rec.det


def fan_cell_complex(f: Fan) -> CellComplex:
    """The fan's cell complex, built on first use and then kept on the fan,
    so that every homology of a run shares one set of incidences and one d∘d
    check; each degree subcomplex keeps its own homology."""
    if getattr(f, "_cell_complex", None) is None:
        f._cell_complex = cell_complex(f)
    return f._cell_complex


def _minor(cols, rows) -> int:
    """Determinant of the columns restricted to the given rows."""
    return determinant([[col[r] for col in cols] for r in rows])


def _permutation_sign(cols, ref) -> int:
    """The sign of cols as a rearrangement of ref, or 0 when it is none."""
    if cols == ref:
        return 1
    position = {r: k for k, r in enumerate(ref)}
    if len(cols) != len(position) or position.keys() != set(cols):
        return 0
    return (-1) ** sum(position[a] > position[b] for a, b in combinations(cols, 2))


def _first_independent_rows(cols, d, n):
    """Lexicographically first row subset on which the column set is
    invertible, with that nonzero minor."""
    for rows in combinations(range(n), d):
        minor = _minor(cols, rows)
        if minor != 0:
            return rows, minor
    raise InternalCheckFailed("columns are not independent")


def incidence(cc: CellComplex, sigma_id: int, tau_id: int) -> int:
    """Incidence number of the cells of two cones; 0 unless tau is a facet
    of sigma.  Rays are incident to the empty cell with coefficient 1.

    The sign compares sigma's basis with tau's basis plus the first ray w of
    sigma that is not a ray of tau, which lies off span(tau) because tau is
    a face.  When tau's basis plus w rearranges sigma's, as on a simplicial
    cell, it is the sign of that permutation (Munkres, *Elements of
    Algebraic Topology*, §5); otherwise the two determinants are compared on
    the first rows where sigma's basis is invertible."""
    key = (sigma_id, tau_id)
    cached = cc._incidence.get(key)
    if cached is not None:
        return cached
    fan = cc.fan
    if tau_id not in fan.facet_ids(sigma_id):
        result = 0
    elif tau_id == cc.empty_cell:
        result = 1
    else:
        tau_rays = fan.cones[tau_id].rays
        w = next((r for r in fan.cones[sigma_id].rays if r not in tau_rays), None)
        cols = (*cc.basis[tau_id], w)
        result = _permutation_sign(cols, cc.basis[sigma_id])
        if not result:
            orientation = cc._orientation.get(sigma_id)
            if orientation is None:
                orientation = cc._orientation[sigma_id] = _first_independent_rows(
                    cc.basis[sigma_id], fan.cones[sigma_id].dim, fan.ambient_dim)
            rows, det_s = orientation
            det_c = 0 if w is None else _minor(cols, rows)
            if det_c == 0:
                raise NoIncidenceWitness(
                    f"no ray of cone {sigma_id} extends the basis of its facet {tau_id}")
            result = 1 if (det_s > 0) == (det_c > 0) else -1
    cc._incidence[key] = result
    return result


@dataclass
class ChainComplex:
    """Augmented integer cellular chain complex of a subcomplex.

    ``ranks[d]`` is the number of cells in degree d for d in -1 .. n-1 and
    ``boundaries[d]`` is the matrix of the boundary map from degree d to
    degree d-1, with rows indexed by degree d-1 cells.
    """

    ambient_dim: int
    ranks: dict[int, int]
    boundaries: dict[int, list[list[int]]]


def chain_complex(cc: CellComplex, keep) -> ChainComplex:
    """Chain complex of the subcomplex spanned by the selected nonzero cones.

    ``keep`` is a collection of cone ids.  The empty cell is always present
    in degree -1, so the empty selection yields the augmented complex of the
    empty subcomplex.
    """
    keep = _face_closed(cc, keep)
    _check_boundary_squared(cc)
    return _restricted_chain_complex(cc, keep | {cc.empty_cell})


def _face_closed(cc: CellComplex, keep) -> frozenset[int]:
    """The selected cone ids, checked to be nonzero cones whose facets are
    all selected too (the empty cell is always implied)."""
    fan = cc.fan
    keep = frozenset(keep)
    empty = cc.empty_cell
    for i in keep:
        if i == empty:
            raise ValueError("the zero cone is not a cell; it is always implied")
        for fid in fan.facet_ids(i):
            if fid != empty and fid not in keep:
                raise NotFaceClosed(
                    f"cone {i} is kept but its facet {fid} is not")
    return keep


def _restricted_chain_complex(cc: CellComplex, cells) -> ChainComplex:
    """The boundary matrices restricted to the given cells.  Incidences are
    computed only on the face relation, where the matrices have their sole
    nonzero entries."""
    fan = cc.fan
    n = fan.ambient_dim
    by_degree: dict[int, list[int]] = {d: [] for d in range(-1, n)}
    for i in sorted(cells):
        by_degree[fan.cones[i].dim - 1].append(i)
    boundaries = {}
    for d in range(0, n):
        row_of = {t: k for k, t in enumerate(by_degree[d - 1])}
        mat = [[0] * len(by_degree[d]) for _ in row_of]
        for j, s in enumerate(by_degree[d]):
            for t in fan.facet_ids(s):
                k = row_of.get(t)
                if k is not None:
                    mat[k][j] = incidence(cc, s, t)
        boundaries[d] = mat
    return ChainComplex(ambient_dim=n, ranks={d: len(ids) for d, ids in by_degree.items()},
                        boundaries=boundaries)


def _check_boundary_squared(cc: CellComplex) -> None:
    """Every incidence of the face relation, and d∘d = 0 on it, in one pass
    over the cells in id order, once per cell complex: a subcomplex's
    boundary columns are the whole complex's, since every facet of a kept
    cell is kept.  A cached incidence is read, not recomputed.  Ids grow with
    (dim, rays), so the j-th facet of a simplicial cell drops the (d-1-j)-th
    of its d sorted rays, and the incidence is (-1)^j times the signs of both
    bases as rearrangements of their rays; other cells take ``incidence``."""
    if cc._boundary_checked:
        return
    fan, signs, basis = cc.fan, cc._incidence, cc.basis
    facets = fan._facets_of
    parity = {cc.empty_cell: 1}
    for s, c in enumerate(fan.cones):
        if not (below := facets[s]):
            continue
        b = basis[s]
        sign = parity[s] = 1 if b == c.rays else _permutation_sign(b, c.rays)
        total = {}
        for t in below:
            st = signs[key] = signs.get(key := (s, t)) or sign * parity[t] or incidence(cc, s, t)
            sign = -sign
            for q in facets[t]:
                total[q] = total.get(q, 0) + st * signs[t, q]
        if any(total.values()):
            raise InternalCheckFailed(f"boundary of boundary is nonzero in degree {c.dim - 1}")
    cc._boundary_checked = True


@dataclass
class HomologyResult:
    """Reduced homology of an augmented complex: free ranks over Q and the
    invariant factor torsion of the integral homology, per degree."""

    betti: dict[int, int]
    torsion: dict[int, tuple[int, ...]]

    def betti_mod_p(self, p: int) -> dict[int, int]:
        """Dimensions over F_p, by universal coefficients: an invariant
        factor of the boundary into degree d that p divides adds one
        dimension in degree d and one in degree d + 1."""
        def divisible(d):
            return sum(1 for x in self.torsion.get(d, ()) if x % p == 0)

        return {d: b + divisible(d) + divisible(d - 1) for d, b in self.betti.items()}


def reduced_homology(c: ChainComplex) -> HomologyResult:
    factors = {d: invariant_factors(mat) if (mat and mat[0]) else []
               for d, mat in c.boundaries.items()}
    betti, torsion = {}, {}
    for d in range(-1, c.ambient_dim):
        betti[d] = c.ranks[d] - len(factors.get(d, [])) - len(factors.get(d + 1, []))
        torsion[d] = tuple(x for x in factors.get(d + 1, []) if x > 1)
    return HomologyResult(betti=betti, torsion=torsion)


def homology_dims_mod_p(c: ChainComplex, p: int) -> dict[int, int]:
    """Dimensions of the reduced homology with coefficients in F_p, from
    ranks over F_p of the boundary matrices: the chain-level reference for
    ``HomologyResult.betti_mod_p``."""
    n = c.ambient_dim
    ranks_p = {d: rank_mod_p(mat, p) if (mat and mat[0]) else 0
               for d, mat in c.boundaries.items()}
    return {d: c.ranks[d] - ranks_p.get(d, 0) - ranks_p.get(d + 1, 0)
            for d in range(-1, n)}


def _cell_masks(cc: CellComplex) -> tuple[list[int], list[int]]:
    """Per cone id, the masks of its facets and of its cofacets, bit i for
    cone id i: built on the complex's first homology and then kept."""
    if cc._masks is None:
        facet_masks, cofacet_masks = cc._masks = [0] * len(cc.fan.cones), [0] * len(cc.fan.cones)
        for s, below in enumerate(cc.fan._facets_of):
            for t in below:
                facet_masks[s] |= 1 << t
                cofacet_masks[t] |= 1 << s
    return cc._masks


def _free_pairs(cc: CellComplex, keep):
    """Free pairs (a, b), a a facet of b, removed one after another from a
    face-closed subcomplex plus the empty cell: b is the only live cofacet
    of a (a reduction), or a the only live facet of b (a coreduction).

    These are the elementary reductions of Kaczyński, Mrozek and Ślusarek,
    "Homology computation by reduction of chain complexes" (1998), and the
    coreductions of Mrozek and Batko, "Coreduction homology algorithm"
    (2009).  A pair with a unit incidence splits off with no fill-in when
    one side has no other live neighbour, so after any number of pairs the
    cells left, with their own boundary entries, have the subcomplex's
    integral homology.  Each pair's incidence is checked to be a unit.  The
    live cells are one int; a cell is free when its live cofacets, or else
    its live facets, are one bit.  Visited top down, reductions first, the
    pairs leave one cell per Betti number on every test battery, n <= 4."""
    facet_masks, cofacet_masks = _cell_masks(cc)
    signs = cc._incidence
    todo = [cc.empty_cell, *sorted(keep)]
    live = sum(1 << s for s in todo)
    while todo:
        c = todo.pop()
        if not live >> c & 1:
            continue
        if (x := cofacet_masks[c] & live) and not x & (x - 1):
            a, b = c, x.bit_length() - 1
        elif (x := facet_masks[c] & live) and not x & (x - 1):
            a, b = x.bit_length() - 1, c
        else:
            continue
        unit = signs.get((b, a)) or incidence(cc, b, a)
        if unit != 1 and unit != -1:
            raise InternalCheckFailed(f"free pair of cones {a} and {b} has incidence {unit}")
        live ^= 1 << a | 1 << b
        for x in (a, b):
            m = (facet_masks[x] | cofacet_masks[x]) & live
            while m:
                low = m & -m
                todo.append(low.bit_length() - 1)
                m ^= low
        yield a, b


def subcomplex_homology(cc: CellComplex, keep) -> HomologyResult:
    """Reduced homology of the subcomplex of the given cone ids: the
    homology of the cells its free pairs leave, whose boundary matrices are
    the only ones that reach the Smith normal form, or all zero when none is
    left.  Face closure is read off the facet masks; a failure raises as
    ``_face_closed`` does."""
    keep, facet_masks = frozenset(keep), _cell_masks(cc)[0]
    live = sum(1 << i for i in keep) | 1 << cc.empty_cell
    if cc.empty_cell in keep or any(facet_masks[i] | live != live for i in keep):
        _face_closed(cc, keep)  # raises, naming the first cone with a missing facet
    _check_boundary_squared(cc)
    for a, b in _free_pairs(cc, keep):
        live ^= 1 << a | 1 << b
    if live:
        return reduced_homology(_restricted_chain_complex(
            cc, [i for i in range(live.bit_length()) if live >> i & 1]))
    degrees = range(-1, cc.fan.ambient_dim)
    return HomologyResult(dict.fromkeys(degrees, 0), dict.fromkeys(degrees, ()))


def _component_graphs(cc: CellComplex) -> tuple[int, list[int], list[int]]:
    """The mask of the rays and, per ray bit k (``fan.input_rays[k]``), the
    masks of the rays sharing a 2-dim cone with it and of those sharing a
    maximal cone: built on the first homology and kept.  The duality needs
    a complete fan, so a ridge not on two maximal cones is refused."""
    if cc._graphs is None:
        fan, n = cc.fan, cc.fan.ambient_dim
        adjacency = {d: [0] * len(fan.input_rays) for d in (2, n)}
        for i, c in enumerate(fan.cones):
            if c.dim == n - 1 and len(fan._cofacets_of[i]) != 2:
                raise ValueError(f"the fan is not complete: ridge {c} lies in "
                                 f"{len(fan._cofacets_of[i])} maximal cone(s)")
            if c.dim in adjacency:
                m = fan.masks[i]
                for k in range(m.bit_length()):
                    if m >> k & 1:
                        adjacency[c.dim][k] |= m
        cc._graphs = sum(fan.masks[i] for i in fan.ray_ids), adjacency[2], adjacency[n]
    return cc._graphs


def _components(nodes: int, adjacency: list[int]) -> int:
    """The number of connected components of the graph on the set bits of
    nodes in which bit k is joined to the bits of ``adjacency[k]``."""
    count = 0
    while nodes:
        count += 1
        todo = seen = nodes & -nodes
        while todo:
            low = todo & -todo
            new = adjacency[low.bit_length() - 1] & nodes & ~seen
            todo ^= low | new
            seen |= new
        nodes &= ~seen
    return count


def component_homology(cc: CellComplex, m: int) -> HomologyResult:
    """Reduced homology of the subcomplex K of the cones whose ray masks lie
    in m, for a complete fan in R^2 or R^3.  S^(n-1) - K retracts onto the
    dual graph of the maximal cones and ridges outside K, so by Alexander
    duality (Hatcher, *Algebraic Topology*, Thm 3.44), with c_K the
    components of K's rays joined by its 2-dim cones and c_C those of that
    graph: H~_-1 = [K empty], H~_0 = c_K - 1, H~_(n-2) = c_C - 1, H~_(n-1) =
    [K whole], all free.  A cone outside K has a ray off m, whose maximal
    cones are joined by its ridges, so c_C counts the off rays joined by a
    shared maximal cone.  In R^2 both count K's arcs unless K is empty or
    whole, and must agree.  d∘d is checked as for ``subcomplex_homology``."""
    _check_boundary_squared(cc)
    rays, edges, stars = _component_graphs(cc)
    n = cc.fan.ambient_dim
    c_k, c_c = _components(m & rays, edges), _components(rays & ~m, stars)
    if n == 2 and c_k and c_c and c_k != c_c:
        raise InternalCheckFailed(f"{c_k} components inside ray mask {m:#x}, "
                                  f"but {c_c} outside it")
    betti = {-1: int(not c_k), 0: max(c_k - 1, 0), n - 1: int(not c_c)}
    betti[n - 2] = max(c_c - 1, 0)
    return HomologyResult(betti, dict.fromkeys(betti, ()))
