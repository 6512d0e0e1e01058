"""The per-distinct-subcomplex pass agrees with the slow references it
replaces: ``subcomplex_homology``, which reduces by free pairs before the
Smith form, with the Smith form of the whole ``chain_complex``; and
``reference_subcomplex``, which pairs each degree with each ray once, with
``membership`` on every cone.  The batteries are the acceptance suite's
random cases, the benchmark's fan pool, the deep 3-D fans, the polytope
corpus and seeded 4-D cross-polytope fans."""

import random
from itertools import islice

import pytest

import toricgf.cellular as cellular
from toricgf import cell_complex, chain_complex, reduced_homology
from toricgf.cellular import subcomplex_homology
from toricgf.cohomology import degree_region, membership, reference_subcomplex, sweep_index
from toricgf.intlinalg import InternalCheckFailed

from conftest import face_closure, fan_battery, octahedron_fan, random_fan_3d

# The deep and 4-D batteries have about 4.8 million and 0.5 million region
# degrees, too many for one membership test per cone at each; there the
# reference is compared at the first degree of every distinct subcomplex and
# at a seeded sample of the region.
SAMPLED = ("deep", "cross4d")
SAMPLE = 150


@pytest.fixture(scope="module", params=["acceptance", "pool", "deep", "polytopes", "cross4d"])
def battery(request):
    """The battery's name and its (fan, support, first degrees) triples."""
    return request.param, [(fan, h, first_degrees(h))
                           for fan, h in fan_battery(request.param, request)]


def first_degrees(h):
    """The first degree in box order of each distinct subcomplex of h's
    derived region, keyed by the subcomplex's cone ids."""
    idx = sweep_index(h)
    box = degree_region(h).box
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
    # nonzero boundary.
    _, cases = battery
    for fan, _, firsts in cases:
        cc = cell_complex(fan)
        for keep in firsts:
            got = subcomplex_homology(cc, keep)
            assert got == reduced_homology(chain_complex(cc, keep))
            left = free_pair_remainder(cc, keep)
            assert len(left) == sum(got.betti.values())
            assert not has_nonzero_boundary(cc, left)


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
