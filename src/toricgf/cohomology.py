"""Graded line bundle cohomology on a complete fan and the lattice point
identity relating it to vertex cone generating functions.

For a support function h and a degree b, the cones whose shifted duals
contain b span a subcomplex of the fan's sphere; its reduced homology gives
the graded cohomology dimensions (H^k in homology degree n-1-k, with the
empty subcomplex contributing to H^n).  Summing the generating functions of
the shifted duals of the maximal cones must reproduce the Laurent polynomial
of Euler characteristics, and this module checks that identity exactly.

Degrees are swept by their sign pattern in the ray hyperplane arrangement.
Because <h_sigma, r> = h(r) for every ray r of sigma, a cone lies in the
degree-b subcomplex exactly when all its rays satisfy <b, r> + h(r) >= 0.
So a degree has one on-ray bitmask, and a cone is kept when its own ray
mask is a subset of it.  The box is swept one line of the last coordinate
at a time: on a line each ray's condition is a single threshold, so the
masks along it come in runs, found by sorting at most one threshold per
ray, stepped along each row of the second-to-last axis.  A ``SweepIndex``
per support function memoises, per distinct mask, a ``Subcomplex``: the
kept cones, the signed count and the homology, from which each field's
dimensions are read; in R^2 and R^3 the homology is read off component
counts on the mask.  ``cohomology_table`` is a run's single pass, one
lookup per run of the box widened by one: the shell runs certify the box
and the inner runs fill the table, which keeps the first degree of each
distinct subcomplex; the Euler polynomial, the identity
check and the corollaries read it.
The identity is checked by ``genfun.polynomial_sum``: the sign-canonical
terms are added one at a time, and each denominator factor is divided out
once the last term that carries it is in, so the sum is never brought over
the whole common denominator; ``brion_sum``, the reference, builds that.
The corollaries and the CLI's oracle check the table against
``reference_subcomplex``, which decides dual membership for every cone from
the linear parts and so does not go through the sweep: per support
function each cone keeps its bounds -<h_sigma, r> over its rays r, and per
degree <b, r> is computed once per ray.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, count, repeat
from operator import add

from .cellular import (HomologyResult, component_homology, fan_cell_complex,
                       subcomplex_homology)
from .genfun import (LaurentPolynomial, RationalGF, box_points, cone_genfun, polynomial_sum,
                     sign_canonical)
from .intlinalg import InternalCheckFailed, cross_product, dot
from .polyhedral import SupportFunction, dual_cone


class ShellCheckFailed(Exception):
    """A nonzero signed count appeared on the boundary shell of the degree
    region, so the region was too small."""


class NoArrangementVertices(Exception):
    """The ray hyperplane arrangement has no vertices; cannot happen for a
    complete fan."""


REGION_CAVEAT = ("degree region certified by a zero signed count on its "
                 "boundary shell; per-degree dimensions outside the box rely "
                 "on finite-dimensionality of the total cohomology")


def membership(h: SupportFunction, sigma_id: int, b) -> bool:
    """Whether b + h_sigma lies in the dual cone of sigma.

    The dual is cut out by pairing against the rays of sigma, so the zero
    cone accepts every degree.  This is the per-cone definition that
    ``reference_subcomplex`` decides for every cone at once, and that the
    sign-pattern sweep replaces.
    """
    shifted = tuple(map(add, b, h.linear_parts[sigma_id]))
    return all(dot(shifted, r) >= 0 for r in h.fan.cones[sigma_id].rays)


@dataclass(eq=False, slots=True)
class Subcomplex:
    """One distinct degree subcomplex, equal only to itself.

    ``keep`` holds its nonzero cones' ids, ``signed_count`` sums (-1)^codim
    over every cone it keeps, the zero cone included, ``mask`` is the mask
    ``lookup`` keyed it by, and its ``homology`` and what each field p reads
    off it, ``derived[p]``, are made on first use.
    """

    keep: frozenset[int]
    signed_count: int
    mask: int | None = None
    homology: HomologyResult | None = None
    derived: dict = field(default_factory=dict)


def reference_subcomplex(h: SupportFunction, b) -> Subcomplex:
    """The degree-b subcomplex by dual membership on every cone, with its
    signed count: the reference the sweep is checked against.  <b, r> is
    computed once per ray and compared once with each bound of
    ``_reference_bounds``; a cone is a member when it meets all of its own,
    which is ``membership``.  It shares no code with the sweep, so that a
    fault in either shows as a disagreement."""
    rays, bounds, cones = _reference_bounds(h)
    pairing = [dot(b, r) for r in rays]
    met = 0
    for k, t, bit in bounds:
        if pairing[k] >= t:
            met |= bit
    keep, signed = [], 0
    for i, (need, sign) in enumerate(cones):
        if need & met == need:
            signed += sign
            if need:
                keep.append(i)
    return Subcomplex(frozenset(keep), signed)


def _reference_bounds(h: SupportFunction) -> tuple:
    """The fan's rays; the distinct bounds (k, -<h_sigma, r_k>, bit) over
    the cones sigma and their rays r_k, k the ray's index, each with a bit;
    and per cone the mask of its bounds and (-1)^codim.  b + h_sigma is in
    the dual of sigma when <b, r_k> reaches each of sigma's bounds.  The
    bounds come from the linear parts, not from the ray values the sweep
    reads; built on first use and kept on h."""
    ref = getattr(h, "_reference", None)
    if ref is None:
        fan = h.fan
        n = fan.ambient_dim
        index = {r: k for k, r in enumerate(fan.rays)}
        bits: dict[tuple[int, int], int] = {}
        cones = []
        for i, c in enumerate(fan.cones):
            need = 0
            for r in c.rays:
                need |= bits.setdefault((index[r], -dot(h.linear_parts[i], r)), 1 << len(bits))
            cones.append((need, (-1) ** (n - c.dim)))
        ref = h._reference = (fan.rays, tuple((k, t, bit) for (k, t), bit in bits.items()),
                              tuple(cones))
    return ref


class SweepIndex:
    """Rays with their support values, every cone's ray mask as the fan
    keeps it (bit k for ``fan.input_rays[k]``), and the memo of subcomplexes
    by on-ray mask, for one support function."""

    def __init__(self, h: SupportFunction):
        fan = h.fan
        n = fan.ambient_dim
        self.fan = fan
        self._rays = tuple((1 << k, r, h.value(r)) for k, r in enumerate(fan.input_rays))
        self._cones = tuple(zip(fan.masks, [(-1) ** (n - c.dim) for c in fan.cones]))
        self._memo: dict[int, Subcomplex] = {}

    def mask(self, b) -> int:
        """Bit k is set when ray r = ``fan.input_rays[k]`` satisfies
        <b, r> + h(r) >= 0."""
        m = 0
        for bit, r, v in self._rays:
            if dot(b, r) + v >= 0:
                m |= bit
        return m

    def line_runs(self, box):
        """For each prefix of the box in box order, the prefix and the runs
        (first, end, mask) of equal masks on its line of the last axis, where
        index i is the degree prefix + (lo + i,) and a run ends before end.

        With s = <prefix, r'> + h(r), where r' drops the last entry c of r,
        the ray is on over the whole line when c = 0 and s >= 0, from index
        -(s // c) - lo on when c > 0, and up to index s // -c - lo when c < 0.
        s is paired once per row of the second-to-last axis, at its first
        prefix, and then stepped by r's second-to-last entry along the row.
        """
        *head, (lo, hi) = box
        width = hi - lo + 1
        *outer, (x0, x1) = head or [(0, 0)]  # n = 1: one row of one line
        groups = [[(bit, r, v) for bit, r, v in self._rays if (r[-1] > 0) - (r[-1] < 0) == sign]
                  for sign in (1, -1, 0)]
        up, down, flat = ([(bit, abs(r[-1])) for bit, r, _ in g] for g in groups)
        pairs = [[(r[:-2], r[-2] if head else 0, v) for _, r, v in g] for g in groups]
        for row in box_points(outer):
            # Per group, the tuple of its rays' s on each line of the row.
            lines = [zip(*[count(dot(row, r) + x0 * t + v, t) for r, t, v in pair])
                     if pair else repeat(()) for pair in pairs]
            for x, su, sd, sf in zip(range(x0, x1 + 1), *lines):
                m, flips = 0, {}
                for (bit, c), s in zip(up, su):
                    k = -(s // c) - lo  # on from index k
                    if k <= 0:
                        m |= bit
                    elif k < width:
                        flips[k] = flips.get(k, 0) | bit
                for (bit, c), s in zip(down, sd):
                    k = s // c - lo + 1  # on before index k
                    if k > 0:
                        m |= bit
                        if k < width:
                            flips[k] = flips.get(k, 0) | bit
                for (bit, _), s in zip(flat, sf):
                    if s >= 0:
                        m |= bit
                runs, first = [], 0
                for k in sorted(flips):
                    runs.append((first, k, m))
                    m ^= flips[k]
                    first = k
                runs.append((first, width, m))
                yield ((*row, x) if head else ()), runs

    def lookup(self, m: int) -> Subcomplex:
        """The subcomplex of the cones whose rays are all on in mask m."""
        sub = self._memo.get(m)
        if sub is None:
            keep, signed = [], 0
            for i, (cm, sign) in enumerate(self._cones):
                if cm & m == cm:
                    signed += sign
                    if cm:
                        keep.append(i)
            sub = self._memo[m] = Subcomplex(frozenset(keep), signed, m)
        return sub

    def subcomplex(self, b) -> Subcomplex:
        return self.lookup(self.mask(b))

    def cohomology(self, sub: Subcomplex, p: int | None = None):
        """(dims, torsion, chi) over Q, or F_p when p is given, once per field."""
        return sub.derived.get(p) or sub.derived.setdefault(p, self._derive(sub, p))

    def _derive(self, sub: Subcomplex, p: int | None):
        """(dims, torsion, chi) read off the homology, which in R^2 and R^3
        comes from component counts; chi must be the signed count."""
        n = self.fan.ambient_dim
        hom = sub.homology
        if hom is None:
            cc = fan_cell_complex(self.fan)
            hom = sub.homology = (component_homology(cc, sub.mask) if 2 <= n <= 3
                                  else subcomplex_homology(cc, sub.keep))
        betti = hom.betti if p is None else hom.betti_mod_p(p)
        dims = tuple(betti[n - 1 - k] for k in range(n + 1))
        torsion = tuple(hom.torsion[n - 1 - k] for k in range(n + 1))
        chi = sum((-1) ** k * dims[k] for k in range(n + 1))
        # The alternating sum telescopes to the chain-level count over any
        # field, so the cross-check is valid for F_p dimensions too.
        if chi != sub.signed_count:
            raise InternalCheckFailed(
                f"Euler characteristic mismatch on cones {sorted(sub.keep)}")
        return dims, torsion, chi


def sweep_index(h: SupportFunction) -> SweepIndex:
    """The support function's sweep index, built on first use and kept on h."""
    idx = getattr(h, "_sweep", None)
    if idx is None:
        idx = h._sweep = SweepIndex(h)
    return idx


def support_subcomplex(h: SupportFunction, b) -> frozenset[int]:
    """Ids of the nonzero cones whose shifted dual contains b.

    The result is face-closed because a face's rays are a subset of its
    cone's rays; ``chain_complex`` checks face closure again.
    """
    return sweep_index(h).subcomplex(b).keep


def graded_cohomology(h: SupportFunction, b, p: int | None = None):
    """Cohomology dimensions (H^0 .. H^n) and torsion at a single degree.

    Dimensions are ranks over Q, or over F_p when p is given; torsion lists
    the nontrivial invariant factors of the integral groups.
    """
    idx = sweep_index(h)
    dims, torsion, _ = idx.cohomology(idx.subcomplex(b), p)
    return dims, torsion


def signed_count(h: SupportFunction, b) -> int:
    """Sum over all cones of (-1)^codim times the dual membership indicator.

    This is the coefficient of x^b in the signed series over the whole fan,
    and equals the Euler characteristic of the degree-b complex.
    """
    return sweep_index(h).subcomplex(b).signed_count


@dataclass(frozen=True)
class DegreeRegion:
    """A box of degrees: derived from the ray hyperplane arrangement, or
    given by the user.  Its lattice points are the candidate degrees."""

    box: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.box or any(type(lo) is not int or type(hi) is not int or lo > hi
                               for lo, hi in self.box):
            raise ValueError(f"degree box {self.box!r} needs integer axes with lo <= hi")

    @property
    def candidates(self) -> tuple[tuple[int, ...], ...]:
        return tuple(box_points(self.box))


def degree_region(h: SupportFunction) -> DegreeRegion:
    """Integer bounding box of the vertices of the arrangement of the
    hyperplanes <a, v> = -h(v) over the rays v of the fan.

    Each (n-1)-subset of rays has one cross product, shared by the n-subsets
    that contain it: for an n-subset r_0 .. r_{n-1}, det = <r_0, x(rest)>,
    and by Cramer's rule the vertex is sum_i (-1)^i (-h(r_i)) x(subset
    without r_i) / det, floored and ceiled by integer division.
    """
    fan = h.fan
    n = fan.ambient_dim
    rays = fan.rays
    rhs = [-h.value(r) for r in rays]
    cross = {sub: cross_product([rays[i] for i in sub])
             for sub in combinations(range(len(rays)), n - 1)}
    vertices = []
    for subset in combinations(range(len(rays)), n):
        det = dot(rays[subset[0]], cross[subset[1:]])
        if det:
            terms = [[(-1) ** i * rhs[k] * c for c in cross[subset[:i] + subset[i + 1:]]]
                     for i, k in enumerate(subset)]
            vertices.append((det, [sum(col) for col in zip(*terms)]))
    if not vertices:
        raise NoArrangementVertices(
            "fewer than n independent ray hyperplanes; fan cannot be complete")
    return DegreeRegion(box=tuple((min(x[j] // det for det, x in vertices),
                                   max(-(-x[j] // det) for det, x in vertices))
                                  for j in range(n)))


def check_shell(h: SupportFunction, box) -> None:
    """Every lattice point on the shell around the box must have a zero
    signed count: the check that ``cohomology_table`` makes on its sweep."""
    cohomology_table(h, region=DegreeRegion(tuple(box)))


@dataclass
class CohomologyTable:
    """Graded cohomology over one degree region and one coefficient field.

    ``subcomplexes`` pairs each distinct subcomplex of the region with its
    first degree in box order.  ``entries`` maps a degree with nonzero
    cohomology to (dims, torsion, chi); omitted degrees have all-zero
    cohomology within the certified region.
    """

    ambient_dim: int
    entries: dict[tuple[int, ...], tuple[tuple[int, ...], tuple, int]]
    region: DegreeRegion
    subcomplexes: tuple[tuple[tuple[int, ...], Subcomplex], ...]


def cohomology_table(h: SupportFunction, p: int | None = None,
                     region: DegreeRegion | None = None) -> CohomologyTable:
    """Graded cohomology at every degree of the region (derived when not
    given) with its shell check, in one sweep of the box widened by one and
    one subcomplex lookup per run of equal masks.

    A line whose prefix lies outside the box is all shell; any other line
    meets the shell at its two ends, and its runs clipped to the box fill
    the table.  The first shell degree in box order with a nonzero signed
    count raises ``ShellCheckFailed``.  Each distinct subcomplex's Euler
    characteristic is checked equal to its signed cone count.
    """
    if region is None:
        region = degree_region(h)
    idx = sweep_index(h)
    wide = [(lo - 1, hi + 1) for lo, hi in region.box]
    lo, hi = wide[-1]
    last = hi - lo
    seen: dict[Subcomplex, tuple] = {}
    entries = {}
    for prefix, runs in idx.line_runs(wide):
        inner = all(a < x < b for x, (a, b) in zip(prefix, wide))
        if inner:
            shell = ((0, runs[0][2]), (last, runs[-1][2]))
        else:
            shell = [(first, m) for first, _, m in runs]
        for i, m in shell:
            count = idx.lookup(m).signed_count
            if count != 0:
                raise ShellCheckFailed(
                    f"nonzero signed count {count} at shell degree {(*prefix, lo + i)}")
        if not inner:
            continue
        for first, end, m in runs:
            first, end = max(first, 1), min(end, last)
            if first < end:
                sub = idx.lookup(m)
                if sub not in seen:
                    seen[sub] = ((*prefix, lo + first), idx.cohomology(sub, p))
                value = seen[sub][1]
                if any(value[0]) or any(value[1]):
                    for t in range(lo + first, lo + end):
                        entries[(*prefix, t)] = value
    return CohomologyTable(ambient_dim=h.fan.ambient_dim, entries=entries,
                           region=region,
                           subcomplexes=tuple((b, sub) for sub, (b, _) in seen.items()))


def chi_polynomial(h: SupportFunction, table: CohomologyTable | None = None) -> LaurentPolynomial:
    """Laurent polynomial whose x^a coefficient is the Euler characteristic
    of the degree-a cohomology; it does not depend on the table's field."""
    if table is None:
        table = cohomology_table(h)
    terms = {deg: chi for deg, (_, _, chi) in table.entries.items() if chi != 0}
    return LaurentPolynomial(h.fan.ambient_dim, terms)


def brion_terms(h: SupportFunction) -> list[tuple[int, RationalGF]]:
    """Per maximal cone, the generating function of -h_sigma + dual(sigma)."""
    fan = h.fan
    out = []
    for i in fan.maximal_ids:
        shift = tuple(-x for x in h.linear_part(i))
        out.append((i, cone_genfun(shift, dual_cone(fan.cones[i]))))
    return out


def brion_sum(h: SupportFunction, terms=None) -> RationalGF:
    """Sum of the maximal cone generating functions over a common
    denominator, each term in sign-canonical form first so that the opposite
    dual edges of adjacent cones share one factor.  Lower-dimensional cones
    never contribute: their duals contain lines and have no rational lattice
    series here.  ``verify_identity`` does not build this sum; it is the
    reference for ``polynomial_sum``."""
    if terms is None:
        terms = brion_terms(h)
    total = None
    for _, gf in terms:
        gf = sign_canonical(gf)
        total = gf if total is None else total + gf
    if total is None:
        raise ValueError("fan has no full-dimensional cones")
    return total


@dataclass
class CorollaryResult:
    holds: bool
    witness: str | None = None


@dataclass
class VerificationReport:
    """The identity verdict, chi, the corollaries and the region, with the
    peaks of ``polynomial_sum``: the most denominator factors it held open
    and the most terms its partial numerator had."""

    identity_holds: bool
    chi_polynomial: LaurentPolynomial
    corollary_results: dict[str, CorollaryResult]
    region: DegreeRegion
    peak_open_factors: int
    peak_numerator_terms: int


def _check_corollaries(h: SupportFunction, table: CohomologyTable,
                       chi: LaurentPolynomial) -> dict[str, CorollaryResult]:
    """The paper's three corollaries in one pass over the table's distinct
    subcomplexes, against ``reference_subcomplex`` at each first degree:
    H^n is 1 exactly when the reference is empty, and the lower cohomology
    is 0 then; H^0 and H^n are not both nonzero in the region; and the x^b
    coefficient of chi is the reference's signed count, which is (-1)^(n-1)
    times its reduced Euler characteristic."""
    n = h.fan.ambient_dim
    idx = sweep_index(h)
    found: dict[str, str] = {}
    h0_at = hn_at = None
    for b, sub in table.subcomplexes:
        dims = idx.cohomology(sub)[0]
        ref = reference_subcomplex(h, b)
        empty = not ref.keep
        if dims[n] != int(empty) or (empty and any(dims[:n])):
            found.setdefault("top_cohomology", f"cohomology {dims} at {b}, but the "
                             f"membership subcomplex is {'empty' if empty else 'nonempty'}")
        if chi.coefficient(b) != ref.signed_count:
            found.setdefault("reduced_euler", f"coefficient {chi.coefficient(b)} at {b}, "
                             "but (-1)^(n-1) * reduced Euler characteristic is "
                             f"{ref.signed_count}")
        if h0_at is None and dims[0]:
            h0_at = b
        if hn_at is None and dims[n]:
            hn_at = b
    if h0_at is not None and hn_at is not None:
        found["h0_hn_exclusive"] = f"H^0 nonzero at {h0_at} and H^{n} nonzero at {hn_at}"
    return {name: CorollaryResult(name not in found, found.get(name))
            for name in ("top_cohomology", "h0_hn_exclusive", "reduced_euler")}


def verify_identity(h: SupportFunction, table: CohomologyTable | None = None,
                    terms: list[tuple[int, RationalGF]] | None = None
                    ) -> VerificationReport:
    """Check that the maximal cone sum equals the Euler characteristic
    polynomial, together with the structural corollaries.  The sum is
    ``polynomial_sum`` of the terms, which divides each denominator factor
    out as soon as its last term is in; the identity holds when that is a
    polynomial and equals chi.

    A caller that has already built the table, over any region and any
    coefficient field, or the Brion terms, passes them in; otherwise the
    rational table over the derived region and the terms are built here.
    The identity and the corollaries are checked on the table's region; the
    corollaries read rational cohomology whatever the table's field.
    Failures are reported, never raised.
    """
    if table is None:
        table = cohomology_table(h)
    chi = chi_polynomial(h, table)
    if terms is None:
        terms = brion_terms(h)
    summed = polynomial_sum(gf for _, gf in terms)
    return VerificationReport(identity_holds=summed.total == chi, chi_polynomial=chi,
                              corollary_results=_check_corollaries(h, table, chi),
                              region=table.region,
                              peak_open_factors=summed.peak_open_factors,
                              peak_numerator_terms=summed.peak_numerator_terms)
