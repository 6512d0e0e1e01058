"""Multivariate Laurent polynomials and exact cone generating functions.

A LaurentPolynomial is a finite exponent-to-coefficient map over Z.  A
RationalGF is a numerator together with a multiset of primitive vectors g,
each standing for a denominator factor (1 - x^g); no polynomial gcd
cancellation is ever attempted.  Equality is decided in sign-canonical form,
every g lex-positive, by exact division by the binomials that only one side
has.  ``polynomial_sum`` decides whether a sum of such functions is a
Laurent polynomial, and finds it, in one pass: it adds the sign-canonical
terms one at a time and divides out each binomial once the last term that
carries its line is in.  Generating functions of shifted full-dimensional
pointed cones are assembled from a disjoint half-open triangulation, one
fundamental parallelepiped per simplicial piece.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, count, product
from operator import add

from .intlinalg import (
    InternalCheckFailed,
    Vector,
    adjugate,
    determinant,
    dot,
    matvec,
    primitive_vector,
    smith_normal_form,
    unimodular_inverse,
)
from .polyhedral import Cone, _simplex, cone_from_rays


class NotPointed(Exception):
    """The cone contains a line, so its lattice series is not rational here."""


class NotFullDimensional(Exception):
    """The operation needs a full-dimensional cone."""


class DependentGenerators(Exception):
    """Parallelepiped generators must be linearly independent."""


class LaurentPolynomial:
    """Finite map from integer exponent vectors to nonzero coefficients.

    >>> x = LaurentPolynomial.monomial((1,))
    >>> (x + x).terms
    {(1,): 2}
    >>> ((1 - x) * (1 + x)).terms == {(0,): 1, (2,): -1}
    True
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict[Vector, int] | None = None):
        self.dim = dim
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls, dim: int) -> "LaurentPolynomial":
        return cls(dim)

    @classmethod
    def monomial(cls, exponent, coeff: int = 1) -> "LaurentPolynomial":
        e = tuple(int(x) for x in exponent)
        return cls(len(e), {e: coeff})

    @classmethod
    def constant(cls, dim: int, value: int) -> "LaurentPolynomial":
        return cls(dim, {(0,) * dim: value})

    def coefficient(self, exponent) -> int:
        return self.terms.get(tuple(exponent), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.constant(self.dim, other)
        return isinstance(other, LaurentPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _coerce(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            return LaurentPolynomial.constant(self.dim, other)
        if isinstance(other, LaurentPolynomial):
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPolynomial(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        # Convolution; iterate over the smaller factor.
        a, b = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        out: dict[Vector, int] = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPolynomial(self.dim, out)

    __rmul__ = __mul__

    def scale(self, k: int) -> "LaurentPolynomial":
        return LaurentPolynomial(self.dim, {e: k * c for e, c in self.terms.items()})

    def shift(self, b) -> "LaurentPolynomial":
        """Multiply by the monomial x^b."""
        b = tuple(b)
        return LaurentPolynomial(
            self.dim, {tuple(x + y for x, y in zip(e, b)): c
                       for e, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[Vector, int]]:
        """Terms in graded lexicographic exponent order."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"{c}*x^{list(e)}" for e, c in self.sorted_terms()]
        return " + ".join(bits)


def times_binomials(p: LaurentPolynomial, factors) -> LaurentPolynomial:
    """p times the product of (1 - x^g) over the factors, by shift and subtract."""
    terms = p.terms
    for g in factors:
        terms = _times_binomial(terms, g)
    return LaurentPolynomial(p.dim, terms)


def _times_binomial(terms: dict[Vector, int], g: Vector) -> dict[Vector, int]:
    """The terms of a polynomial times (1 - x^g)."""
    out = dict(terms)
    for e, c in terms.items():
        e = tuple(map(add, e, g))
        c = out.get(e, 0) - c
        if c:
            out[e] = c
        else:
            del out[e]
    return out


@dataclass(frozen=True)
class RationalGF:
    """numerator / product of (1 - x^g) over the factor multiset."""

    numerator: LaurentPolynomial
    denominator_factors: tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(self, "denominator_factors",
                           tuple(sorted(self.denominator_factors)))

    @property
    def dim(self) -> int:
        return self.numerator.dim

    @classmethod
    def from_polynomial(cls, p: LaurentPolynomial) -> "RationalGF":
        return cls(numerator=p, denominator_factors=())

    def __add__(self, other: "RationalGF") -> "RationalGF":
        ca = Counter(self.denominator_factors)
        cb = Counter(other.denominator_factors)
        common = ca | cb
        num = (times_binomials(self.numerator, (common - ca).elements())
               + times_binomials(other.numerator, (common - cb).elements()))
        return RationalGF(num, tuple(common.elements()))

    def __repr__(self):
        return f"({self.numerator!r}) / prod(1 - x^g for g in {list(self.denominator_factors)})"


def sign_canonical(gf: RationalGF) -> RationalGF:
    """The same rational function with every factor lex-positive, by
    1/(1 - x^g) = -x^-g / (1 - x^-g) for each lex-negative g; opposite
    factors of two summands then coincide.  ``expand_in_box`` would read it
    as a different series."""
    zero = (0,) * gf.dim
    flipped = [g for g in gf.denominator_factors if g < zero]
    if not flipped:
        return gf
    return RationalGF(gf.numerator.shift(-sum(col) for col in zip(*flipped))
                      .scale((-1) ** len(flipped)),
                      tuple(tuple(-x for x in g) if g < zero else g
                            for g in gf.denominator_factors))


def _divide_binomial(terms: dict[Vector, int], g: Vector) -> dict[Vector, int] | None:
    """The quotient of a polynomial by (1 - x^g), or None on a remainder.
    Q(e) is the sum of S(e - j*g) over j >= 0: a prefix sum along each line
    of step g, which must end at zero."""
    i = next(k for k, x in enumerate(g) if x)
    gi = g[i]
    lines: dict[Vector, list[tuple[int, int, Vector]]] = {}
    for e, c in terms.items():
        t = e[i] // gi
        base = tuple([x - t * y for x, y in zip(e, g)])
        steps = lines.get(base)
        if steps is None:
            lines[base] = [(t, c, e)]
        else:
            steps.append((t, c, e))
    out = {}
    for steps in lines.values():
        steps.sort()  # t is distinct on a line
        run = 0
        t, c, e = steps[0]
        for t_next, c_next, e_next in steps[1:]:
            run += c
            if run:
                out[e] = run
                for _ in range(t + 1, t_next):
                    e = tuple(map(add, e, g))
                    out[e] = run
            t, c, e = t_next, c_next, e_next
        if run + c:
            return None
    return out


def rational_equal(a: RationalGF, b: RationalGF) -> bool:
    """Exact equality in the quotient field, by exact division.

    Both sides are put in sign-canonical form and their common factors
    cancelled; the binomials are not zero divisors, so this is sound.  The
    left numerator times the right-only factors must then divide exactly by
    the left-only factors, with the right numerator as quotient.
    """
    a, b = sign_canonical(a), sign_canonical(b)
    ca = Counter(a.denominator_factors)
    cb = Counter(b.denominator_factors)
    terms = times_binomials(a.numerator, (cb - ca).elements()).terms
    for g in (ca - cb).elements():
        terms = _divide_binomial(terms, g)
        if terms is None:
            return False
    return terms == b.numerator.terms


@dataclass(frozen=True)
class PolynomialSum:
    """The sum of rational generating functions as a Laurent polynomial, or
    None when it is not one, with the most factors the pass held open at
    once and the most terms its partial numerator had."""

    total: LaurentPolynomial | None
    peak_open_factors: int
    peak_numerator_terms: int


def polynomial_sum(gfs) -> PolynomialSum:
    """The sum of the generating functions, decided to be a Laurent
    polynomial or not in one pass.

    Each term is put in sign-canonical form and added to a partial numerator
    over the factors open so far, by shift and subtract.  Once the last term
    with a factor on a line through g is in, the partial numerator is divided
    by each open binomial on that line.  The terms still to come have no
    factor on that line, so they are regular along each {x^g = 1}: if the
    total is a polynomial, the partial sum has no pole there either and the
    division is exact.  A remainder therefore means the sum is not a
    polynomial, and when no division leaves one the last numerator is the
    total.  The next term is the one that leaves the fewest factors open,
    by index on a tie; this keeps the partial numerator small.
    """
    terms = [sign_canonical(gf) for gf in gfs]
    if not terms:
        raise ValueError("an empty sum has no dimension")
    factors = [Counter(gf.denominator_factors) for gf in terms]
    line_of = {g: primitive_vector(g) for fac in factors for g in fac}
    lines = [{line_of[g] for g in fac} for fac in factors]
    carriers = Counter(line for ls in lines for line in ls)
    on_line: dict[Vector, list[Vector]] = {}
    for g, line in line_of.items():
        on_line.setdefault(line, []).append(g)
    numerator: dict[Vector, int] = {}
    opened: dict[Vector, int] = {}
    peak_open = peak_terms = 0

    def left_open(k):
        """How many more factors are open after adding term k and closing
        the lines it is the last to carry."""
        fac = factors[k]
        n = sum(c - opened.get(g, 0) for g, c in fac.items() if c > opened.get(g, 0))
        for line in lines[k]:
            if carriers[line] == 1:
                n -= sum(max(opened.get(g, 0), fac.get(g, 0)) for g in on_line[line])
        return n

    todo = list(range(len(terms)))
    while todo:
        k = min(todo, key=left_open)
        todo.remove(k)
        fac, own = factors[k], terms[k].numerator.terms
        merged = {**opened, **{g: max(c, opened.get(g, 0)) for g, c in fac.items()}}
        for g, c in merged.items():
            for _ in range(opened.get(g, 0), c):
                numerator = _times_binomial(numerator, g)
            for _ in range(fac.get(g, 0), c):
                own = _times_binomial(own, g)
        opened = merged
        for e, c in own.items():
            c += numerator.get(e, 0)
            if c:
                numerator[e] = c
            else:
                del numerator[e]
        peak_open = max(peak_open, sum(opened.values()))
        peak_terms = max(peak_terms, len(numerator))
        carriers.subtract(lines[k])
        for g in [g for g in opened if carriers[line_of[g]] == 0]:
            for _ in range(opened.pop(g)):
                numerator = _divide_binomial(numerator, g)
                if numerator is None:
                    return PolynomialSum(None, peak_open, peak_terms)
    return PolynomialSum(LaurentPolynomial(terms[0].dim, numerator), peak_open, peak_terms)


@dataclass(frozen=True)
class HalfOpenSimplicialCone:
    """Simplicial piece of a triangulation with per-facet openness flags.

    ``closed_flags[i]`` refers to the facet opposite ``generators[i]``; a
    False entry excludes that facet, i.e. forces lambda_i > 0.
    """

    generators: tuple[Vector, ...]
    closed_flags: tuple[bool, ...]


def _triangulate_rays(c: Cone) -> list[tuple[Vector, ...]]:
    """Pulling triangulation using only the rays of the cone: the first ray
    is coned over the triangulated facets that miss it."""
    if c.dim == len(c.rays):
        return [c.rays]
    r0 = c.rays[0]
    facets = sorted({tuple(g for g in c.rays if dot(u, g) == 0) for u in c.inequalities})
    return [(r0,) + sub for facet in facets if r0 not in facet
            for sub in _triangulate_rays(cone_from_rays(c.ambient_dim, facet))]


# The 46 primes below 200.
_PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


def _reference_weights(k: int):
    """Positive ray weights to try, in order, for the reference point.

    First each window of k consecutive primes below 200; then the moment
    curve (1, t, ..., t^(k-1)) for t = 1, 2, ....  On the moment curve,
    <u, z> is a polynomial in t of degree below k, and it is not zero
    because the rays span the space; so each normal u rules out at most k-1
    values of t, and the search always ends.
    """
    windows = (_PRIMES[s:s + k] for s in range(len(_PRIMES) - k))
    moment = ([t ** i for i in range(k)] for t in count(1))
    return chain(windows, moment)


def triangulate_halfopen(c: Cone) -> list[HalfOpenSimplicialCone]:
    """Decompose a full-dimensional pointed cone into pairwise disjoint
    half-open simplicial cones covering it exactly.

    A deterministic rational reference point in the interior decides which
    shared facets stay closed: the piece on the same side as the reference
    keeps the facet, so a simplicial cone is one piece closed on every facet.
    """
    if not c.pointed:
        raise NotPointed(f"{c} contains a line")
    if c.dim != c.ambient_dim:
        raise NotFullDimensional(f"{c} has dimension {c.dim} < {c.ambient_dim}")
    if c.dim == len(c.rays):
        return [HalfOpenSimplicialCone(c.rays, (True,) * c.dim)]
    return _reference_point_pieces(c)


def _reference_point_pieces(c: Cone) -> list[HalfOpenSimplicialCone]:
    """``triangulate_halfopen`` through a reference point, for any cone.
    A piece's inward facet normals are read off its ``Simplex`` record,
    which orders them by its sorted ``ids``: sorting on the ids puts the
    normal opposite each generator in that generator's place."""
    simplices = _triangulate_rays(c)
    normals = []
    for gens in simplices:
        rec = _simplex(gens, range(len(gens)), {})
        if rec is None:
            raise InternalCheckFailed(f"piece {gens} has dependent generators")
        normals.append([u for _, u in sorted(zip(rec.ids, rec.normals))])
    for weights in _reference_weights(len(c.rays)):
        z = tuple(sum(w * r[i] for w, r in zip(weights, c.rays))
                  for i in range(c.ambient_dim))
        if all(dot(u, z) != 0 for ns in normals for u in ns):
            break
    pieces = []
    for gens, ns in zip(simplices, normals):
        flags = tuple(dot(u, z) > 0 for u in ns)
        pieces.append(HalfOpenSimplicialCone(gens, flags))
    return pieces


def parallelepiped_points(generators, closed_flags=None) -> list[Vector]:
    """Lattice points of the half-open fundamental parallelepiped.

    The parallelepiped is {sum lambda_i g_i} with lambda_i in [0,1) where
    the facet opposite g_i is closed and (0,1] where it is open.  The point
    count always equals |det(generators)|.  A unimodular parallelepiped
    holds one point, every lambda_i at its closed end: the sum of the
    generators whose facet is open.
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        return [()]
    n = len(gens[0])
    if len(gens) != n:
        raise DependentGenerators(
            f"need {n} independent generators in dimension {n}, got {len(gens)}")
    if closed_flags is None:
        closed_flags = (True,) * n
    g_cols = [[gens[j][i] for j in range(n)] for i in range(n)]
    det = determinant(g_cols)
    if det == 0:
        raise DependentGenerators(f"generators {gens} are linearly dependent")
    if abs(det) == 1:
        points = [tuple(sum(g[i] for g, closed in zip(gens, closed_flags) if not closed)
                        for i in range(n))]
    else:
        points = _smith_parallelepiped_points(g_cols, det, closed_flags)
    if len(set(points)) != abs(det):
        raise InternalCheckFailed(
            f"{len(set(points))} parallelepiped points for determinant {det}")
    return sorted(points)


def _smith_parallelepiped_points(g_cols, det, closed_flags) -> list[Vector]:
    """The parallelepiped's points for any nonzero determinant: one per
    residue of Z^n modulo the generators, read off the Smith form and moved
    into the half-open window with the adjugate."""
    n = len(g_cols)
    adj = adjugate(g_cols)
    snf = smith_normal_form(g_cols)
    uinv = unimodular_inverse(snf.U)
    points = []
    for residue in product(*(range(d) for d in snf.diagonal())):
        x = matvec(uinv, list(residue))
        lam_num = matvec(adj, x)  # lambda_i = lam_num[i] / det
        shift = []
        for i in range(n):
            if closed_flags[i]:
                k = lam_num[i] // det  # floor of the exact rational
            else:
                k = -((-lam_num[i]) // det) - 1  # ceil - 1
            shift.append(k)
        pt = tuple(x[i] - sum(g_cols[i][j] * shift[j] for j in range(n))
                   for i in range(n))
        points.append(pt)
    return points


def cone_genfun(shift, c: Cone) -> RationalGF:
    """Exact rational generating function of the lattice points of shift + c.

    Assembled as a sum over half-open simplicial pieces of
    (sum over parallelepiped points p of x^(shift+p)) / prod(1 - x^g_i),
    brought over a common denominator.  ``triangulate_halfopen`` rejects a
    cone that is not pointed or not full-dimensional.
    """
    shift = tuple(int(x) for x in shift)
    total = None
    for piece in triangulate_halfopen(c):
        pts = parallelepiped_points(piece.generators, piece.closed_flags)
        num = LaurentPolynomial(c.ambient_dim,
                                {tuple(s + p for s, p in zip(shift, pt)): 1
                                 for pt in pts})
        term = RationalGF(num, piece.generators)
        total = term if total is None else total + term
    return total


@dataclass(frozen=True)
class SeriesBox:
    """Coefficients of a formal series restricted to a finite exponent box."""

    box: tuple[tuple[int, int], ...]
    coefficients: dict[Vector, int]

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients",
            {e: c for e, c in self.coefficients.items() if c != 0})
        for e in self.coefficients:
            if not all(lo <= x <= hi for x, (lo, hi) in zip(e, self.box)):
                raise InternalCheckFailed(f"exponent {e} lies outside {self.box}")


def box_points(box):
    return product(*(range(lo, hi + 1) for lo, hi in box))


def truncated_series(shift, c: Cone, box) -> SeriesBox:
    """Indicator series of (shift + c) on a box, by direct membership tests.

    This is the independent oracle: it only evaluates the cone's inequality
    description and shares nothing with the generating function assembly.
    """
    shift = tuple(int(x) for x in shift)
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    coeffs = {}
    for pt in box_points(box):
        moved = tuple(x - s for x, s in zip(pt, shift))
        if c.contains(moved):
            coeffs[pt] = 1
    return SeriesBox(box=box, coefficients=coeffs)


def expand_in_box(gf: RationalGF, box) -> SeriesBox:
    """Laurent series coefficients of a cone generating function on a box.

    Each factor 1/(1 - x^g) is expanded as the geometric series in the
    direction of g.  This is well defined because the factor directions span
    a pointed cone, on which a strictly positive integer functional exists
    and bounds the expansion depth needed to cover the box.
    """
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    dim = gf.dim
    factors = list(gf.denominator_factors)
    if factors:
        fac_cone = cone_from_rays(dim, factors)
        if not fac_cone.pointed:
            raise NotPointed("factor directions span a cone with a line")
        phi = tuple(sum(u[i] for u in fac_cone.inequalities) for i in range(dim))
        if not all(dot(phi, g) >= 1 for g in factors):
            raise InternalCheckFailed(f"{phi} is not positive on every factor")
        bound = sum(max(phi[i] * lo, phi[i] * hi) for i, (lo, hi) in enumerate(box))
        terms = dict(gf.numerator.terms)
        for g in factors:
            new: dict[Vector, int] = {}
            for e, coeff in terms.items():
                cur = e
                while dot(phi, cur) <= bound:
                    new[cur] = new.get(cur, 0) + coeff
                    cur = tuple(x + y for x, y in zip(cur, g))
            terms = new
    else:
        terms = dict(gf.numerator.terms)
    coeffs = {e: c for e, c in terms.items()
              if all(lo <= x <= hi for x, (lo, hi) in zip(e, box))}
    return SeriesBox(box=box, coefficients=coeffs)
