"""The shortcuts that read a simplicial cone off its rays, and the ridge
pass that certifies completeness in the build, agree with the slow
references they replace: the incidence by a permutation's sign with the
determinant incidence, a simplicial ``cone_from_rays`` with the rank
route, the faces of a listed cone with its facet closure and a rank per
face, its facets with the ray subsets one dimension lower, the cell bases
with ``greedy_basis``, the one-pass incidences with the determinant
incidence, and ``check_complete`` with the homology of the sphere cell
complex.  Every reader of a listed cone's ``Simplex`` record agrees with
the path it skips, taken by the same fan built with no record: the facet
normals, the support functionals, the orientation signs, the ridge
normals of completeness, and the build's ridge pass that decides the fan
axioms and completeness in place of the pair check, the last also on
broken cone collections in dimensions 2-5.  A mutant of each shortcut
fails its check, and so does the ridge pass with its side or its
one-point test dropped.  The batteries are the acceptance suite's random
cases, the benchmark's fan pool, deep 3-D fans, the polytope corpus and
seeded 4-D cross-polytope fans."""

import random
from collections import Counter
from itertools import combinations

import pytest

from toricgf import (build_fan, cell_complex, chain_complex, check_complete, cone_from_rays,
                     incidence, lattice_polytope, normal_fan_of_polytope,
                     support_from_ray_values)
from toricgf import cellular, intlinalg, polyhedral
from toricgf.intlinalg import (InternalCheckFailed, cross_product, dot, greedy_basis,
                               primitive_vector, rank)

from conftest import (
    DOUBLE_COVER,
    FOLDED,
    PENTAGRAM,
    POLYTOPES,
    ZIGZAG,
    cone_collections,
    example1_fan,
    fan3d_brion_pool,
    fan_battery,
    general_cone_from_rays,
    minor_incidence,
    random_fan_3d,
    sphere_homology_completeness,
    subset_face_relation,
)


@pytest.fixture(scope="module", params=["acceptance", "pool", "deep", "polytopes", "cross4d"])
def fans(request):
    if request.param == "deep":
        return [random_fan_3d(random.Random(seed), 12) for seed in range(3)]
    return [fan for fan, _ in fan_battery(request.param, request)]


def test_parity_incidence_equals_the_minor_incidence(fans):
    for fan in fans:
        cc = cell_complex(fan)
        for t, s in fan.face_relation:
            if t != fan.zero_id:
                assert incidence(cc, s, t) == minor_incidence(cc, s, t)


def hull_mismatches(fan):
    """Cones whose ``cone_from_rays`` differs from the general hull's."""
    def description(c):
        return c.rays, c.inequalities, c.dim, c.pointed

    return [c for c in fan.cones if description(cone_from_rays(fan.ambient_dim, c.rays))
            != description(general_cone_from_rays(fan.ambient_dim, c.rays))]


def test_simplicial_cone_from_rays_equals_the_general_route(fans):
    assert [c for fan in fans for c in hull_mismatches(fan)] == []
    assert any(c.dim == len(c.rays) == fan.ambient_dim for fan in fans for c in fan.cones)


def greedy_cell_complex(fan):
    """``cell_complex`` with every cell's basis from ``greedy_basis``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cellular, "_cell_basis", lambda c: greedy_basis(c.rays))
        return cell_complex(fan)


def basis_mismatches(fan):
    """Cells whose basis differs from the ``greedy_basis`` one."""
    got, ref = cell_complex(fan).basis, greedy_cell_complex(fan).basis
    return [i for i in ref if got[i] != ref[i]] + sorted(got.keys() ^ ref.keys())


def incidence_mismatches(fan):
    """Face pairs whose incidence from the first d∘d check differs from the
    determinant incidence, and pairs that check left out or added."""
    cc = cell_complex(fan)
    cellular._check_boundary_squared(cc)
    relation = {(s, t) for t, s in fan.face_relation}
    out = sorted(relation ^ cc._incidence.keys())
    return out + [(s, t) for (s, t), v in sorted(cc._incidence.items()) if (s, t) in relation
                  and v != (1 if t == fan.zero_id else minor_incidence(cc, s, t))]


def listed_cones(fan):
    """The fan's maximal cones as index lists into its input rays."""
    index = {r: i for i, r in enumerate(fan.input_rays)}
    return [[index[r] for r in fan.cones[i].rays] for i in fan.maximal_ids]


def rebuilt(fan):
    """The fan built again from its input rays and listed cones."""
    return build_fan(fan.ambient_dim, fan.input_rays, listed_cones(fan))


def build_without_records(n, rays, maximal):
    """``build_fan`` with no ``Simplex`` record: every listed cone takes
    ``cone_from_rays`` and the general hull, and every reader of the records
    its general path."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(polyhedral, "_simplex", lambda *args: None)
        return build_fan(n, rays, maximal)


def without_records(fan):
    """The fan built again with no ``Simplex`` record."""
    return build_without_records(fan.ambient_dim, fan.input_rays, listed_cones(fan))


def outcome(fn):
    """What fn() returns, or the name and message of what it raises."""
    try:
        return "returned", fn()
    except Exception as e:
        return type(e).__name__, str(e)


def face_mismatches(fan):
    """Listed cones whose faces, as ``_faces`` reads them off the cone and as
    the fan holds them with their dimensions, differ from the general hull's
    facet closure with a rank per face."""
    out = []
    for i in fan.maximal_ids:
        c = fan.cones[i]
        ref = {(tuple(sorted(rs)), rank(rs) if rs else 0) for rs in polyhedral._face_ray_sets(
            general_cone_from_rays(fan.ambient_dim, c.rays))}
        held = {(f.rays, f.dim) for f in fan.cones if set(f.rays) <= set(c.rays)}
        if held != ref or set(polyhedral._faces(c)) != {rays for rays, _ in ref}:
            out.append(c)
    return out


def relation_mismatches(fan):
    """The rebuilt fan's face relation where it differs from the subsets of
    rays one dimension apart."""
    fan = rebuilt(fan)
    return sorted(fan.face_relation ^ subset_face_relation(fan))


def normal_mismatches(fan):
    """Records whose normal opposite a ray is not the general hull's facet
    normal off that ray, listed cones whose inequalities differ from the
    general hull's, and listed cones of n independent rays with no record."""
    fan, ref = rebuilt(fan), without_records(fan)
    if fan.cones != ref.cones:
        return ["cones"]
    out = sorted({i for i in fan.maximal_ids if len(fan.cones[i].rays) == fan.ambient_dim}
                 ^ fan.simplices.keys())
    for i in fan.maximal_ids:
        rays, general = fan.cones[i].rays, ref.cones[i].inequalities
        if fan.cones[i].inequalities != general:
            out.append(i)
        for k, u in enumerate(fan.simplices[i].normals if i in fan.simplices else ()):
            if u != next(v for v in general if not any(dot(v, r) for r in rays[:k] + rays[k + 1:])):
                out.append((i, k))
    return out


def support_mismatches(fan):
    """Seeded ray values on which the support solve, a simplicial maximal
    cone's functional read off its record, differs from the general path
    (every such cone solved as a system): in the linear parts, or in the
    error and its message; and records whose functional differs from the
    Smith form solve's, None for a non-integral one included."""
    fan, ref = rebuilt(fan), without_records(fan)
    rng = random.Random(len(fan.cones))
    out = []
    for _ in range(3):
        values = [rng.randint(-2, 2) for _ in fan.input_rays]
        if (outcome(lambda: support_from_ray_values(fan, values).linear_parts)
                != outcome(lambda: support_from_ray_values(ref, values).linear_parts)):
            out.append(values)
        for i, rec in fan.simplices.items():
            b = [values[j] for j in rec.ids]
            if polyhedral.cramer(rec.crosses, rec.det, b) != intlinalg._smith_solve(
                    [list(r) for r in fan.cones[i].rays], b):
                out.append((i, b))
    return out


def orientation_mismatches(fan):
    """Maximal cones whose orientation sign, read off the record, differs
    from the sign of their ray determinant, and cells whose basis differs
    from the general path's."""
    fan, ref = rebuilt(fan), without_records(fan)
    rays = {i: list(fan.cones[i].rays) for i in fan.simplices}
    out = [i for i in fan.simplices if (cellular._orientation(fan, i, rays[i]) > 0)
           != (cellular._minor(rays[i], range(fan.ambient_dim)) > 0)]
    got, want = cell_complex(fan).basis, cell_complex(ref).basis
    return out + [i for i in want if got.get(i) != want[i]]


def completeness_mismatches(fan):
    """On the fan and on the fan less its first maximal cone: ridges whose
    normal in a parent, read off its record, differs from the parent's
    inequality that vanishes on the ridge, and a completeness verdict that
    differs from the general path's."""
    less = [listed_cones(fan), listed_cones(fan)[1:]]
    out = []
    for maximal in less:
        if len({i for cone in maximal for i in cone}) < len(fan.input_rays):
            continue
        part = build_fan(fan.ambient_dim, fan.input_rays, maximal)
        ref = build_without_records(fan.ambient_dim, fan.input_rays, maximal)
        for i, c in enumerate(part.cones):
            if c.dim == part.ambient_dim - 1:
                out += [(i, a) for a in part._cofacets_of[i]
                        if polyhedral._ridge_normal(part, a, i)
                        != polyhedral._ridge_normal(ref, a, i)]
        if outcome(lambda: check_complete(part)) != outcome(lambda: check_complete(ref)):
            out.append(maximal)
    return out


def pair_check_route(build):
    """What ``build()`` returns or raises, whether it ran the fan axiom
    check, and the pairs that check sends to the separation-lemma hull, in
    order."""
    real_check, real_hull = polyhedral._check_intersections, polyhedral._hull_description
    hulls, inside, checks = [], [], []

    def check(*args):
        checks.append(args)
        inside.append(args)
        try:
            return real_check(*args)
        finally:
            inside.pop()

    def hull(gens, n):
        if inside:
            hulls.append(tuple(gens))
        return real_hull(gens, n)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(polyhedral, "_check_intersections", check)
        m.setattr(polyhedral, "_hull_description", hull)
        return outcome(build), bool(checks), hulls


def decision(build):
    """How ``build()`` and the completeness check of its fan end: the error
    and its message, or the completeness report; whether the ridge
    certificate proved the fan, so that the build ran no pair check; and the
    pairs the pair check hulls."""
    (kind, result), checked, hulls = pair_check_route(build)
    if kind != "returned":
        return (kind, result), False, hulls
    return outcome(lambda: check_complete(result)), not checked, hulls


def certificate_mismatch(dim, rays, maximal):
    """Where the build that tries the ridge certificate first and the build
    with no record (the pair check and ``check_complete``'s own pass) end
    differently: in the error and its message or the completeness report,
    and, where the certificate did not certify, in the pairs hulled."""
    got, certified, got_hulls = decision(lambda: build_fan(dim, rays, maximal))
    want, _, want_hulls = decision(lambda: build_without_records(dim, rays, maximal))
    if got != want or (not certified and got_hulls != want_hulls):
        return [(got, got_hulls, want, want_hulls)]
    return []


def certificate_mismatches(fan):
    """``certificate_mismatch`` on the fan's listed cones, and on them less
    the first where every ray stays in use."""
    out = []
    for maximal in (listed_cones(fan), listed_cones(fan)[1:]):
        if len({i for cone in maximal for i in cone}) == len(fan.input_rays):
            out += certificate_mismatch(fan.ambient_dim, fan.input_rays, maximal)
    return out


CHECKS = {"hull": hull_mismatches, "faces": face_mismatches, "relation": relation_mismatches,
          "normals": normal_mismatches, "support": support_mismatches,
          "orientation": orientation_mismatches, "completeness": completeness_mismatches,
          "intersections": certificate_mismatches, "bases": basis_mismatches,
          "incidences": incidence_mismatches}


@pytest.fixture(scope="module", params=["acceptance", "pool", "deep", "polytopes", "cross4d"])
def battery(request):
    return [fan for fan, _ in fan_battery(request.param, request)]


@pytest.mark.parametrize("shortcut", ["faces", "relation", "normals", "support", "orientation",
                                      "completeness", "intersections", "bases", "incidences"])
def test_simplicial_shortcut_equals_its_general_path(shortcut, battery):
    assert [m for fan in battery for m in CHECKS[shortcut](fan)] == []
    assert any(len(c.rays) == c.dim > 1 for fan in battery for c in fan.cones)


def collection_fan(top):
    """The rays and listed cones of a collection of pointed cones."""
    rays = sorted({r for c in top for r in c.rays})
    index = {r: i for i, r in enumerate(rays)}
    return top[0].ambient_dim, rays, [[index[r] for r in c.rays] for c in top]


def test_ridge_certificate_equals_the_general_path_on_cone_collections():
    # Complete fans and broken ones: a cone missing, an extra cone, a ray
    # moved across a wall.  The build ends as the pair check and the general
    # completeness pass end it, with the same error and message or the same
    # report; where the certificate fails, after the same hulls.
    rng = random.Random(8)
    verdicts = Counter()
    for n, count, depth in ((2, 60, 6), (3, 25, 4), (4, 5, 2), (5, 10, 2)):
        for top in cone_collections(rng, n, count, depth):
            dim, rays, maximal = collection_fan(top)
            assert certificate_mismatch(dim, rays, maximal) == [], top
            (kind, _), certified, _ = decision(lambda: build_fan(dim, rays, maximal))
            verdicts[n, kind, certified] += 1
    for n in (2, 3, 4, 5):
        assert verdicts[n, "returned", True], verdicts
        assert verdicts[n, "returned", False] and verdicts[n, "FanAxiomViolation", False], verdicts


def replaced(rec, **fields):
    """A copy of a ``Simplex`` record with the given fields replaced."""
    return polyhedral.Simplex(*(fields.get(f, getattr(rec, f)) for f in rec.__slots__))


def outward_facets(real):
    # Every cross product kept as it comes, none turned inward.
    def mutant(gens):
        return real(gens) and sorted(primitive_vector(cross_product(gens[:i] + gens[i + 1:]))
                                     for i in range(len(gens)))
    return mutant


def facets_left_out(real):
    # The ray subsets one short of the facets.
    def mutant(c):
        if len(c.rays) > c.dim:
            return real(c)
        return [f for k in range(c.dim - 1) for f in combinations(c.rays, k)] + [c.rays]
    return mutant


def facet_dropped(real):
    def mutant(mask, rays, bit):
        return real(mask, rays, bit)[1:]
    return mutant


def outward_normals(real):
    # Every record's cross products kept as they come, none turned inward.
    def mutant(rays, idx, ridges):
        rec = real(rays, idx, ridges)
        return rec and replaced(rec, normals=tuple(map(primitive_vector, rec.crosses)))
    return mutant


def unsigned_functional(real):
    # Every denominator taken as det, where the k-th is (-1)^k det.
    def mutant(crosses, det, b):
        return real([u if k % 2 == 0 else tuple(-x for x in u) for k, u in enumerate(crosses)],
                    det, b)
    return mutant


def absolute_orientation(real):
    # The record's determinant taken without its sign.
    def mutant(f, i, basis):
        return abs(f.simplices[i].det) if i in f.simplices else real(f, i, basis)
    return mutant


def neighbour_normal(real):
    # The normal of a record's cone on its next facet.
    def mutant(f, a, ridge):
        if a not in f.simplices:
            return real(f, a, ridge)
        facets = f.facet_ids(a)
        return real(f, a, facets[(facets.index(ridge) + 1) % len(facets)])
    return mutant


def reversed_rays(real):
    def mutant(c):
        return list(reversed(c.rays)) if len(c.rays) == c.dim > 1 else real(c)
    return mutant


def unordered_sign(real):
    # Any rearrangement counts as even, so the orientation swap is lost.
    def mutant(cols, ref):
        return real(cols, ref) and 1
    return mutant


MUTANTS = {"hull": (polyhedral, "_simplicial_facets", outward_facets),
           "faces": (polyhedral, "_faces", facets_left_out),
           "relation": (polyhedral, "_facet_masks", facet_dropped),
           "normals": (polyhedral, "_simplex", outward_normals),
           "support": (polyhedral, "cramer", unsigned_functional),
           "orientation": (cellular, "_orientation", absolute_orientation),
           "completeness": (polyhedral, "_ridge_normal", neighbour_normal),
           "bases": (cellular, "_cell_basis", reversed_rays),
           "incidences": (cellular, "_permutation_sign", unordered_sign)}


@pytest.mark.parametrize("shortcut", sorted(MUTANTS))
def test_a_mutant_shortcut_fails_its_check(shortcut, monkeypatch):
    fans = fan3d_brion_pool() + [fan for fan, _ in fan_battery("cross4d", None)]
    module, name, mutate = MUTANTS[shortcut]
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    assert any(CHECKS[shortcut](fan) for fan in fans)


def sides_unchecked(real):
    # Every ridge normal zero, so the two on a ridge are always opposite:
    # the side test is dropped.
    return lambda f, a, ridge: (0,) * f.ambient_dim


def point_unchecked(real):
    # No cone contains the test point: the one-point test is dropped.
    return lambda c, x: False


CERTIFICATE_MUTANTS = {"sides": (polyhedral, "_ridge_normal", sides_unchecked, ZIGZAG),
                       "one-point": (polyhedral.Cone, "contains", point_unchecked, PENTAGRAM)}


@pytest.mark.parametrize("test", sorted(CERTIFICATE_MUTANTS))
def test_a_mutant_ridge_certificate_fails_its_check(test, monkeypatch):
    # The ridge pass with one test dropped certifies a non-fan.
    target, name, mutate, (dim, rays, maximal) = CERTIFICATE_MUTANTS[test]
    assert certificate_mismatch(dim, rays, maximal) == []
    (kind, _), certified, _ = decision(lambda: build_fan(dim, rays, maximal))
    assert (kind, certified) == ("FanAxiomViolation", False)
    monkeypatch.setattr(target, name, mutate(getattr(target, name)))
    assert certificate_mismatch(dim, rays, maximal)


def test_complete_simplicial_fans_take_no_pair_check_and_no_completeness_pass(
        request, monkeypatch):
    # The build's ridge pass decides the fan axioms and completeness of every
    # fan of these batteries: one pass per fan, no pair check, no hull, and
    # no ridge normal from an inequality.
    data = [(fan.ambient_dim, fan.input_rays, listed_cones(fan))
            for name in ("pool", "deep", "cross4d") for fan, _ in fan_battery(name, request)]
    calls = Counter()

    def counted(name):
        real = getattr(polyhedral, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    real_normal = polyhedral._ridge_normal

    def normal(f, a, ridge):
        if a not in f.simplices:
            calls["inequality normal"] += 1
        return real_normal(f, a, ridge)

    for name in ("_check_intersections", "_hull_description", "_ridge_failure"):
        monkeypatch.setattr(polyhedral, name, counted(name))
    monkeypatch.setattr(polyhedral, "_ridge_normal", normal)
    for dim, rays, maximal in data:
        fan = build_fan(dim, rays, maximal)
        assert check_complete(fan).complete
    assert calls == Counter({"_ridge_failure": len(data)})


@pytest.mark.parametrize("build, complete", [
    (lambda: build_fan(2, [[1, 1], [0, 1], [-1, 1], [0, -1]], [[1, 2], [2, 3], [3, 0]]), False),
    (lambda: normal_fan_of_polytope(lattice_polytope(3, POLYTOPES[4][2]))[0], True),
    (lambda: normal_fan_of_polytope(lattice_polytope(3, POLYTOPES[5][2]))[0], True),
], ids=["readme-less-a-cone", "cube", "octahedron"])
def test_one_ridge_pass_per_fan(build, complete, monkeypatch):
    # The build's ridge pass, run where every listed cone has a record (the
    # first two), is the verdict that check_complete reports; the normal
    # fan of the octahedron has no record, and check_complete runs the pass.
    calls = []
    real = polyhedral._ridge_failure
    monkeypatch.setattr(polyhedral, "_ridge_failure", lambda f: calls.append(f) or real(f))
    fan = build()
    assert check_complete(fan).complete == complete
    assert check_complete(fan).complete == complete
    assert calls == [fan]


def broken_fans(fans):
    """Each fan less its first maximal cone, where every ray stays in use."""
    out = []
    for fan in fans:
        maximal = listed_cones(fan)[1:]
        if len({i for cone in maximal for i in cone}) == len(fan.input_rays):
            out.append(build_fan(fan.ambient_dim, fan.input_rays, maximal))
    return out


def test_ridge_certificate_agrees_with_sphere_homology(fans):
    broken = broken_fans(fans)
    assert broken
    for fan in fans + broken:
        assert check_complete(fan) == sphere_homology_completeness(fan)


@pytest.mark.parametrize("rays,maximal,complete", [
    ([[1, 1], [0, 1], [-1, 1], [0, -1]], [[0, 1], [1, 2], [2, 3]], False),
    ([[1, 0], [0, 1]], [[0, 1]], False),
    ([[1, 0], [0, 1]], [[0], [1]], False),
    ([[1]], [[0]], False),
    ([[1], [-1]], [[0], [1]], True),
], ids=["missing-cone", "orthant", "two-rays", "dim1-half", "dim1"])
def test_ridge_certificate_on_small_fans(rays, maximal, complete):
    fan = build_fan(len(rays[0]), rays, maximal)
    report = check_complete(fan)
    assert report.complete == complete
    assert report == sphere_homology_completeness(fan)


@pytest.mark.parametrize("rays,maximal,message", [
    (*FOLDED[1:], "lie on one side"),
    (*DOUBLE_COVER[1:], "lies in another maximal cone"),
], ids=["folded", "double-cover"])
def test_ridge_certificate_rejects_a_non_fan(rays, maximal, message, monkeypatch):
    # With the fan axiom check switched off, every ridge of these lies in two
    # maximal cones, yet one of the two certificates fails.
    import toricgf.polyhedral as polyhedral

    monkeypatch.setattr(polyhedral, "_check_intersections", lambda *args: None)
    fan = build_fan(2, rays, maximal)
    with pytest.raises(InternalCheckFailed, match=message):
        check_complete(fan)


def test_simplicial_fans_take_no_determinant_incidence(monkeypatch):
    import toricgf.cellular as cellular

    def fail(*args):
        raise AssertionError("determinant incidence on a simplicial cell")

    monkeypatch.setattr(cellular, "_first_independent_rows", fail)
    for fan in fan3d_brion_pool() + [example1_fan()]:
        cc = cell_complex(fan)
        chain_complex(cc, frozenset(i for i, c in enumerate(fan.cones) if c.dim > 0))
