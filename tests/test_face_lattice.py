"""Faces, linear parts and boundary matrices taken from the face lattice
agree with the slow references they replace: ``cone_from_rays`` per face,
the ray values per cone, and one incidence per (cell, lower cell) pair.  The
batteries are the acceptance suite's random cases, the deep 3-D fans, the
polytope corpus and seeded 4-D cross-polytope fans."""

import random

import pytest

from toricgf import (build_fan, cell_complex, chain_complex, cone_from_rays,
                     lattice_polytope, normal_fan_of_polytope, support_from_ray_values)
from toricgf.intlinalg import dot

from conftest import (POLYTOPES, cross_polytope_fan_data, dense_boundaries, face_closure,
                      random_battery, random_support_3d)


def cross_polytope_battery():
    """The 4-D cross-polytope fan after 0-4 stellar subdivisions, three seeded
    fans per depth.  Every cone stays unimodular, so any values are a
    support function."""
    rng = random.Random(404)
    cases = []
    for subdivisions in range(5):
        for _ in range(3):
            rays, maximal = cross_polytope_fan_data(rng, 4, subdivisions)
            fan = build_fan(4, rays, maximal)
            values = [rng.randint(-2, 2) for _ in rays]
            cases.append((fan, support_from_ray_values(fan, values)))
    return cases


@pytest.fixture(scope="module", params=["acceptance", "deep", "polytopes", "cross4d"])
def battery(request):
    if request.param == "acceptance":
        return random_battery()
    if request.param == "deep":
        rng = random.Random(77)
        return [(fan, random_support_3d(rng, fan, spread=2))
                for fan in request.getfixturevalue("deep_fans")]
    if request.param == "polytopes":
        return [normal_fan_of_polytope(lattice_polytope(dim, verts))
                for _, dim, verts in POLYTOPES]
    return cross_polytope_battery()


def test_every_face_equals_cone_from_rays(battery):
    for fan, _ in battery:
        for c in fan.cones:
            assert c == cone_from_rays(fan.ambient_dim, c.rays)


def test_inherited_linear_parts_take_the_ray_values(battery):
    for fan, h in battery:
        for i, c in enumerate(fan.cones):
            assert all(dot(h.linear_part(i), r) == h.value(r) for r in c.rays)


def test_sparse_boundaries_equal_the_dense_reference(battery):
    rng = random.Random(5)
    for fan, _ in battery:
        cc = cell_complex(fan)
        picks = [range(len(fan.cones)), (),
                 rng.sample(fan.maximal_ids, (len(fan.maximal_ids) + 1) // 2),
                 rng.sample(range(len(fan.cones)), len(fan.cones) // 3)]
        for ids in picks:
            keep = face_closure(fan, ids)
            assert chain_complex(cc, keep).boundaries == dense_boundaries(cc, keep)
