"""Faces, face relations, duals, linear parts and boundary matrices taken
from the face lattice agree with the slow references they replace:
``cone_from_rays`` per face and per dual, the ray-set comparison of every
ordered pair of cones, the ray values per cone, and one incidence per (cell,
lower cell) pair from the cells' bases, up to one sign per cell.  The
batteries are the acceptance suite's random cases, the deep 3-D fans, the
polytope corpus and seeded 4-D cross-polytope fans; the boundary matrices
are also checked on the benchmark's fan pool and the RP^2 torsion fan."""

import random

import pytest

from toricgf import cell_complex, chain_complex, cone_from_rays, dual_cone, incidence
from toricgf.intlinalg import dot

from conftest import (dense_boundaries, face_closure, fan_battery, minor_incidence,
                      subset_face_relation)
from reference import cell_bases, cell_signs


@pytest.fixture(scope="module", params=["acceptance", "deep", "polytopes", "cross4d"])
def battery(request):
    return fan_battery(request.param, request)


def test_every_face_equals_cone_from_rays(battery):
    for fan, _ in battery:
        for c in fan.cones:
            ref = cone_from_rays(fan.ambient_dim, c.rays)
            assert c == ref
            assert c.inequalities == ref.inequalities


def test_dual_of_every_cone_equals_the_hulled_dual(battery):
    for fan, _ in battery:
        for c in fan.cones:
            d, ref = dual_cone(c), cone_from_rays(fan.ambient_dim, c.inequalities)
            assert d == ref
            assert d.inequalities == ref.inequalities


def test_face_relation_equals_the_ray_subset_reference(battery):
    for fan, _ in battery:
        assert fan.face_relation == subset_face_relation(fan)


def test_inherited_linear_parts_take_the_ray_values(battery):
    for fan, h in battery:
        for i, c in enumerate(fan.cones):
            assert all(dot(h.linear_part(i), r) == h.value(r) for r in c.rays)


@pytest.fixture(scope="module",
                params=["acceptance", "pool", "deep", "polytopes", "cross4d", "rp2"])
def boundary_battery(request):
    return fan_battery(request.param, request)


def test_sparse_boundaries_equal_the_dense_reference(boundary_battery):
    # The incidences agree with the bases' up to one sign per cell, read off
    # each cell's first facet.
    rng = random.Random(5)
    for fan, _ in boundary_battery:
        cc, bases = cell_complex(fan), cell_bases(fan)
        e = cell_signs(fan, lambda s, t: incidence(cc, s, t),
                       lambda s, t: minor_incidence(fan, bases, s, t))
        picks = [range(len(fan.cones)), (),
                 rng.sample(fan.maximal_ids, (len(fan.maximal_ids) + 1) // 2),
                 rng.sample(range(len(fan.cones)), len(fan.cones) // 3)]
        for ids in picks:
            keep = face_closure(fan, ids)
            assert chain_complex(cc, keep).boundaries == dense_boundaries(cc, keep, bases, e)
