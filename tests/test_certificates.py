"""The shortcuts that read a simplicial cone off its rays, and the ridge
certificate of completeness, agree with the slow references they replace:
the incidence by a permutation's sign with the determinant incidence, a
simplicial ``cone_from_rays`` with the rank route, and ``check_complete``
with the homology of the sphere cell complex.  The batteries are the
acceptance suite's random cases, deep 3-D fans, the polytope corpus and
seeded 4-D cross-polytope fans."""

import random

import pytest

from toricgf import (build_fan, cell_complex, chain_complex, check_complete, cone_from_rays,
                     incidence)
from toricgf.intlinalg import InternalCheckFailed

from conftest import (
    example1_fan,
    fan3d_brion_pool,
    fan_battery,
    general_cone_from_rays,
    minor_incidence,
    random_fan_3d,
    sphere_homology_completeness,
)


@pytest.fixture(scope="module", params=["acceptance", "deep", "polytopes", "cross4d"])
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


def test_simplicial_cone_from_rays_equals_the_general_route(fans):
    simplicial = 0
    for fan in fans:
        for c in fan.cones:
            got = cone_from_rays(fan.ambient_dim, c.rays)
            ref = general_cone_from_rays(fan.ambient_dim, c.rays)
            assert (got.rays, got.inequalities, got.dim, got.pointed) == (
                ref.rays, ref.inequalities, ref.dim, ref.pointed)
            simplicial += c.dim == len(c.rays)
    assert simplicial


def broken_fans(fans):
    """Each fan less its first maximal cone, where every ray stays in use."""
    out = []
    for fan in fans:
        index = {r: i for i, r in enumerate(fan.input_rays)}
        maximal = [[index[r] for r in fan.cones[i].rays] for i in fan.maximal_ids[1:]]
        if len({i for cone in maximal for i in cone}) == len(index):
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
