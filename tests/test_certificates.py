"""The shortcuts that read a simplicial cone off its rays, and the ridge
certificate of completeness, agree with the slow references they replace:
the incidence by a permutation's sign with the determinant incidence, a
simplicial ``cone_from_rays`` with the rank route, the faces of a listed
cone with its facet closure and a rank per face, the cell bases with
``greedy_basis``, the one-pass incidences with the determinant incidence,
and ``check_complete`` with the homology of the sphere cell complex.  A
mutant of each shortcut fails its check.  The batteries are the acceptance
suite's random cases, the benchmark's fan pool, deep 3-D fans, the polytope
corpus and seeded 4-D cross-polytope fans."""

import random
from itertools import combinations

import pytest

from toricgf import (build_fan, cell_complex, chain_complex, check_complete, cone_from_rays,
                     incidence)
from toricgf import cellular, polyhedral
from toricgf.intlinalg import (InternalCheckFailed, cross_product, greedy_basis,
                               primitive_vector, rank)

from conftest import (
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


def listed_cones(fan):
    """The fan's maximal cones as index lists into its input rays."""
    index = {r: i for i, r in enumerate(fan.input_rays)}
    return [[index[r] for r in fan.cones[i].rays] for i in fan.maximal_ids]


def rebuilt(fan):
    """The fan built again from its input rays and listed cones."""
    return build_fan(fan.ambient_dim, fan.input_rays, listed_cones(fan))


def face_mismatches(fan):
    """Listed cones whose faces in the rebuilt fan, with their dimensions,
    differ from the general hull's facet closure with a rank per face, and
    the rebuilt fan's face relation where it differs from the reference."""
    fan = rebuilt(fan)
    out = []
    for i in fan.maximal_ids:
        c = fan.cones[i]
        got = {(f.rays, f.dim) for f in fan.cones if set(f.rays) <= set(c.rays)}
        ref = {(tuple(sorted(rs)), rank(rs) if rs else 0) for rs in polyhedral._face_ray_sets(
            general_cone_from_rays(fan.ambient_dim, c.rays))}
        if got != ref:
            out.append(c)
    if fan.face_relation != subset_face_relation(fan):
        out.append(fan.face_relation)
    return out


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


CHECKS = {"hull": hull_mismatches, "faces": face_mismatches, "bases": basis_mismatches,
          "incidences": incidence_mismatches}


@pytest.fixture(scope="module", params=["acceptance", "pool", "deep", "polytopes", "cross4d"])
def battery(request):
    return [fan for fan, _ in fan_battery(request.param, request)]


@pytest.mark.parametrize("shortcut", ["faces", "bases", "incidences"])
def test_simplicial_shortcut_equals_its_general_path(shortcut, battery):
    assert [m for fan in battery for m in CHECKS[shortcut](fan)] == []
    assert any(len(c.rays) == c.dim > 1 for fan in battery for c in fan.cones)


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
           "bases": (cellular, "_cell_basis", reversed_rays),
           "incidences": (cellular, "_permutation_sign", unordered_sign)}


@pytest.mark.parametrize("shortcut", sorted(MUTANTS))
def test_a_mutant_shortcut_fails_its_check(shortcut, monkeypatch):
    fans = fan3d_brion_pool() + [fan for fan, _ in fan_battery("cross4d", None)]
    module, name, mutate = MUTANTS[shortcut]
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    assert any(CHECKS[shortcut](fan) for fan in fans)


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
    # Three cones in the first quadrant folded back on each other.
    ([[1, 0], [0, 1], [1, 2]], [[0, 1], [1, 2], [2, 0]], "lie on one side"),
    # Eight cones winding twice around the origin.
    ([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-1, 1], [-1, -1], [1, -1]],
     [[i, (i + 1) % 8] for i in range(8)], "lies in another maximal cone"),
], ids=["folded", "double-cover"])
def test_ridge_certificate_rejects_a_non_fan(rays, maximal, message, monkeypatch):
    # With the fan axiom check switched off, every ridge of these lies in two
    # maximal cones, yet one of the two certificates fails.
    import toricgf.polyhedral as polyhedral

    monkeypatch.setattr(polyhedral, "_check_intersections", lambda top: None)
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
