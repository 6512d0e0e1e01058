"""The per-distinct-subcomplex pass agrees with the slow references it
replaces: ``subcomplex_homology``, which reduces by free pairs before the
Smith form, with the Smith form of the whole ``chain_complex``; and
``reference_subcomplex``, which pairs each degree with each ray once, with
``membership`` on every cone.  The batteries are the acceptance suite's
random cases, the benchmark's fan pool, the deep 3-D fans, the polytope
corpus, the random polytope battery and seeded 4-D cross-polytope fans; and,
with no claim on the size of the remainder, seeded 5-D cross-polytope fans
and the RP^2 torsion fan.  In R^2 and R^3, ``component_homology`` is checked
against ``subcomplex_homology`` on every battery and on every ray mask of
small fans."""

import random
from itertools import islice

import pytest

import toricgf.cellular as cellular
from toricgf import (NotFaceClosed, build_fan, cell_complex, chain_complex, reduced_homology,
                     support_from_ray_values)
from toricgf.cellular import component_homology, subcomplex_homology
from toricgf.cohomology import degree_region, membership, reference_subcomplex, sweep_index
from toricgf.intlinalg import InternalCheckFailed

from conftest import (cross_polytope_battery, cross_polytope_fan_data, example1_fan,
                      face_closure, fan3d_brion_pool_supports, fan_battery, octahedron_fan,
                      random_fan_3d, rp2_torsion_fan_data)

# The deep, random polytope and 4-D batteries have about 4.8, 4.2 and 0.5
# million region degrees, too many for one membership test per cone at each;
# there the reference is compared at the first degree of every distinct
# subcomplex and at a seeded sample of the region.
SAMPLED = ("deep", "random-polytopes", "cross4d")
SAMPLE = 150


@pytest.fixture(scope="module",
                params=["acceptance", "pool", "deep", "polytopes", "random-polytopes", "cross4d"])
def battery(request):
    """The battery's name and its (fan, support, first degrees) triples."""
    return request.param, [(fan, h, first_degrees(h))
                           for fan, h in fan_battery(request.param, request)]


def first_degrees(h, box=None):
    """The first degree in box order of each distinct subcomplex of the box,
    by default h's derived region, keyed by the subcomplex's cone ids."""
    idx = sweep_index(h)
    box = box or degree_region(h).box
    lo = box[-1][0]
    firsts = {}
    for prefix, runs in idx.line_runs(box):
        for first, _, m in runs:
            firsts.setdefault(idx.lookup(m).keep, (*prefix, lo + first))
    return firsts


def nonzero_ids(fan):
    return frozenset(i for i, c in enumerate(fan.cones) if c.dim > 0)


def free_pair_remainder(cc, keep, pairs=None):
    """The cells of a subcomplex plus the empty cell less its first
    ``pairs`` free pairs, or all of them."""
    left = {cc.empty_cell, *keep}
    for pair in islice(cellular._free_pairs(cc, keep), pairs):
        left.difference_update(pair)
    return left


def has_nonzero_boundary(cc, cells):
    return any(any(row) for mat in cellular._restricted_chain_complex(cc, cells).boundaries.values()
               for row in mat)


def test_free_pair_homology_equals_the_smith_reference(battery):
    # The ordering (top down, reductions first) leaves one cell per Betti
    # number on every battery, so no remainder reaches the Smith form with a
    # nonzero boundary.  In R^2 and R^3 the component counts on the
    # subcomplex's ray mask give the same homology.
    _, cases = battery
    for fan, h, firsts in cases:
        cc = cell_complex(fan)
        idx = sweep_index(h)
        for keep, b in firsts.items():
            got = subcomplex_homology(cc, keep)
            assert got == reduced_homology(chain_complex(cc, keep))
            left = free_pair_remainder(cc, keep)
            assert len(left) == sum(got.betti.values())
            assert not has_nonzero_boundary(cc, left)
            if 2 <= fan.ambient_dim <= 3:
                assert component_homology(cc, idx.mask(b)) == got, b


def test_free_pair_homology_equals_the_smith_reference_in_5d():
    # Two seeded 5-D cross-polytope fans per subdivision count 0-4, values in
    # [-1, 1]: 2,944 distinct subcomplexes.  Here some remainders keep more
    # cells than their Betti sum, so only the homology is compared.
    rng = random.Random(505)
    count = 0
    for subdivisions in range(5):
        for _ in range(2):
            rays, maximal = cross_polytope_fan_data(rng, 5, subdivisions)
            fan = build_fan(5, rays, maximal)
            h = support_from_ray_values(fan, [rng.randint(-1, 1) for _ in rays])
            cc = cell_complex(fan)
            for keep in first_degrees(h):
                assert subcomplex_homology(cc, keep) == reduced_homology(chain_complex(cc, keep))
                count += 1
    assert count == 2944


def test_torsion_fan_free_pair_homology_equals_the_smith_reference():
    # The 198 distinct subcomplexes of the RP^2 fan's (-1..1)^5 box, the one
    # torsion case: degree 0 keeps the Z/2 of H_1(RP^2) through the collapse.
    rays, maximal, values = rp2_torsion_fan_data()
    fan = build_fan(5, rays, maximal)
    cc = cell_complex(fan)
    firsts = first_degrees(support_from_ray_values(fan, values), ((-1, 1),) * 5)
    assert len(firsts) == 198
    torsion = {}
    for keep, b in firsts.items():
        got = subcomplex_homology(cc, keep)
        assert got == reduced_homology(chain_complex(cc, keep))
        if any(got.torsion.values()):
            torsion[b] = got.torsion
    assert torsion == {(0,) * 5: {-1: (), 0: (), 1: (2,), 2: (), 3: (), 4: ()}}


def test_component_homology_equals_the_smith_reference_on_every_ray_mask():
    # A degree's ray mask cuts each maximal cone by a hyperplane, and the
    # counts hold for any mask: on the square cones of the octahedron's
    # normal fan, two opposite rays off and two on leave the cone outside K.
    fans = [example1_fan(), octahedron_fan(), random_fan_3d(random.Random(29), 2)]
    fans += [fan for fan, _ in fan_battery("polytopes", None)
             if fan.ambient_dim in (2, 3) and len(fan.input_rays) <= 10]
    count = 0
    for fan in fans:
        cc = cell_complex(fan)
        for m in range(1 << len(fan.input_rays)):
            keep = frozenset(i for i, cm in enumerate(fan.masks) if cm and cm & m == cm)
            assert component_homology(cc, m) == subcomplex_homology(cc, keep), (fan, m)
            count += 1
    assert count > 1500


def raised(fn, cc, keep):
    """The type and message of the face-closure error fn raises on keep."""
    with pytest.raises((ValueError, NotFaceClosed)) as info:
        fn(cc, keep)
    return type(info.value), str(info.value)


def test_face_closure_errors_equal_the_reference():
    # subcomplex_homology reads face closure off its facet masks and raises
    # what chain_complex raises, naming the same first missing facet: on the
    # octahedron's lone maximal cone, on the zero cone, and on seeded
    # selections of pool and 4-D fans, some with the zero cone in them.
    fan = octahedron_fan()
    cases = [(fan, frozenset({fan.maximal_ids[0]})), (fan, frozenset({fan.zero_id})),
             (fan, nonzero_ids(fan) | {fan.zero_id})]
    rng = random.Random(2701)
    for fan, _ in [*fan3d_brion_pool_supports(), *cross_polytope_battery()]:
        for _ in range(6):
            closed = face_closure(fan, rng.sample(fan.maximal_ids, rng.randint(1, 3)))
            keep = closed - set(rng.sample(sorted(closed), rng.randint(1, 4)))
            if rng.random() < 0.3:
                keep = keep | {fan.zero_id}
            if fan.zero_id in keep or face_closure(fan, keep) != keep:
                cases.append((fan, keep))
    assert len(cases) > 150
    kinds = set()
    for fan, keep in cases:
        cc = cell_complex(fan)
        error = raised(subcomplex_homology, cc, keep)
        assert error == raised(chain_complex, cc, keep)
        kinds.add(error[0])
    assert kinds == {ValueError, NotFaceClosed}


def test_reference_subcomplex_equals_per_cone_membership(battery):
    name, cases = battery
    rng = random.Random(1401)
    for fan, h, firsts in cases:
        n = fan.ambient_dim
        degrees = degree_region(h).candidates
        if name in SAMPLED:
            degrees = [*firsts.values(), *rng.sample(degrees, min(SAMPLE, len(degrees)))]
        for b in degrees:
            member = [i for i in range(len(fan.cones)) if membership(h, i, b)]
            ref = reference_subcomplex(h, b)
            assert ref.keep == frozenset(i for i in member if fan.cones[i].dim)
            assert ref.signed_count == sum((-1) ** (n - fan.cones[i].dim) for i in member)


@pytest.mark.parametrize("keep", ["all", "one-ray"])
def test_a_free_pair_with_a_non_unit_incidence_fails(keep):
    # Every ray's incidence with the empty cell doubled: d∘d still vanishes,
    # and the Smith form would read a spurious Z/2 in degree -1, but every
    # reduction removes the empty cell with some ray.
    fan = octahedron_fan()
    ids = nonzero_ids(fan) if keep == "all" else face_closure(fan, fan.ray_ids[:1])
    cc = cell_complex(fan)
    for r in fan.ray_ids:
        cc._incidence[r, fan.zero_id] = 2
    assert reduced_homology(chain_complex(cc, ids)).torsion[-1] == (2,)
    with pytest.raises(InternalCheckFailed, match="has incidence 2"):
        subcomplex_homology(cc, ids)


def test_a_remainder_with_a_nonzero_boundary_keeps_the_homology(monkeypatch):
    # Stopped after k pairs, the remainder is larger and its boundary no
    # longer zero, but its Smith form gives the same homology.
    real = cellular._free_pairs
    fan = random_fan_3d(random.Random(5), 3)
    subcomplexes = [nonzero_ids(fan), face_closure(fan, fan.maximal_ids[:3]),
                    face_closure(fan, fan.ray_ids[::2])]
    nonzero = 0
    for keep in subcomplexes:
        ref = reduced_homology(chain_complex(cell_complex(fan), keep))
        for k in range(len(keep) // 2 + 1):
            monkeypatch.setattr(cellular, "_free_pairs",
                                lambda cc, keep, k=k: islice(real(cc, keep), k))
            cc = cell_complex(fan)
            assert subcomplex_homology(cc, keep) == ref
            nonzero += has_nonzero_boundary(cc, free_pair_remainder(cc, keep, k))
    assert nonzero > 0
