import random

import pytest

from toricgf import (
    NotFaceClosed,
    build_fan,
    cell_complex,
    chain_complex,
    incidence,
    lattice_polytope,
    normal_fan_of_polytope,
    reduced_homology,
)
from toricgf.cellular import homology_dims_mod_p, subcomplex_homology
from toricgf.intlinalg import InternalCheckFailed

from conftest import (
    example1_fan,
    face_closure,
    octahedron_fan,
    random_fan_2d,
    random_fan_3d,
)
from reference import is_zero_matrix, matmul


def nonzero_ids(fan):
    return frozenset(i for i, c in enumerate(fan.cones) if c.dim > 0)


def test_cell_complex_example1():
    fan = example1_fan()
    cc = cell_complex(fan)
    assert len(cc.cells_by_degree[-1]) == 1
    assert len(cc.cells_by_degree[0]) == 4
    assert len(cc.cells_by_degree[1]) == 4


def test_cell_complex_dim1():
    fan = build_fan(1, [[1], [-1]], [[0], [1]])
    cc = cell_complex(fan)
    assert len(cc.cells_by_degree[-1]) == 1
    assert len(cc.cells_by_degree[0]) == 2


def test_cell_complex_octahedron():
    cc = cell_complex(octahedron_fan())
    assert len(cc.cells_by_degree[0]) == 6
    assert len(cc.cells_by_degree[1]) == 12
    assert len(cc.cells_by_degree[2]) == 8


def test_incidence_ray_vs_empty_cell():
    fan = example1_fan()
    cc = cell_complex(fan)
    for rid in fan.ray_ids:
        assert incidence(cc, rid, fan.zero_id) == 1


def test_incidence_non_incident_pairs():
    fan = example1_fan()
    cc = cell_complex(fan)
    r = list(fan.ray_ids)
    assert incidence(cc, r[0], r[1]) == 0
    # a maximal cone against a ray not on its boundary
    sid = fan.cone_id([(1, 1), (0, 1)])
    rid = fan.cone_id([(0, -1)])
    assert incidence(cc, sid, rid) == 0


def test_incidence_each_edge_has_opposite_signs():
    fan = example1_fan()
    cc = cell_complex(fan)
    for sid in fan.maximal_ids:
        signs = [incidence(cc, sid, fid) for fid in fan.facet_ids(sid)]
        assert sorted(signs) == [-1, 1]


def test_chain_complex_full_example1():
    fan = example1_fan()
    cc = cell_complex(fan)
    ch = chain_complex(cc, nonzero_ids(fan))
    assert ch.ranks == {-1: 1, 0: 4, 1: 4}
    assert is_zero_matrix(matmul(ch.boundaries[0], ch.boundaries[1]))
    hom = reduced_homology(ch)
    assert hom.betti == {-1: 0, 0: 0, 1: 1}
    assert all(not t for t in hom.torsion.values())


def test_chain_complex_empty_subcomplex():
    fan = example1_fan()
    cc = cell_complex(fan)
    ch = chain_complex(cc, frozenset())
    assert ch.ranks == {-1: 1, 0: 0, 1: 0}
    hom = reduced_homology(ch)
    assert hom.betti[-1] == 1


def test_chain_complex_two_points():
    fan = example1_fan()
    cc = cell_complex(fan)
    keep = frozenset({fan.cone_id([(1, 1)]), fan.cone_id([(-1, 1)])})
    ch = chain_complex(cc, keep)
    assert ch.ranks == {-1: 1, 0: 2, 1: 0}
    hom = reduced_homology(ch)
    assert hom.betti == {-1: 0, 0: 1, 1: 0}


def test_chain_complex_not_face_closed():
    fan = octahedron_fan()
    cc = cell_complex(fan)
    sid = fan.maximal_ids[0]
    with pytest.raises(NotFaceClosed):
        chain_complex(cc, frozenset({sid}))


def euler_characteristic(c):
    """Alternating sum of chain ranks in cochain (codimension) indexing."""
    n = c.ambient_dim
    return sum((-1) ** (n - 1 - d) * c.ranks[d] for d in range(-1, n))


def test_euler_characteristic_cochain_convention():
    fan = example1_fan()
    cc = cell_complex(fan)
    full = chain_complex(cc, nonzero_ids(fan))
    assert euler_characteristic(full) == 4 - 4 + 1
    empty = chain_complex(cc, frozenset())
    assert euler_characteristic(empty) == 1
    keep = frozenset({fan.cone_id([(1, 1)]), fan.cone_id([(-1, 1)])})
    assert euler_characteristic(chain_complex(cc, keep)) == 0 - 2 + 1


def test_euler_characteristic_matches_homology():
    rng = random.Random(17)
    for _ in range(25):
        fan = random_fan_2d(rng) if rng.random() < 0.7 else random_fan_3d(rng, 1)
        cc = cell_complex(fan)
        n = fan.ambient_dim
        ids = sorted(nonzero_ids(fan))
        # random face-closed subsets: close a random seed set under facets
        seed = {i for i in ids if rng.random() < 0.4}
        keep = set()
        stack = list(seed)
        while stack:
            i = stack.pop()
            if i in keep:
                continue
            keep.add(i)
            stack.extend(f for f in fan.facet_ids(i) if f != fan.zero_id)
        ch = chain_complex(cc, frozenset(keep))
        for d in range(0, n - 1):
            lo, hi = ch.boundaries[d], ch.boundaries[d + 1]
            if lo and hi and lo[0] and hi[0]:
                assert is_zero_matrix(matmul(lo, hi))
        hom = reduced_homology(ch)
        chi_chain = euler_characteristic(ch)
        chi_hom = sum((-1) ** (n - 1 - d) * hom.betti[d] for d in range(-1, n))
        assert chi_chain == chi_hom


def test_sphere_homology_complete_fans():
    rng = random.Random(23)
    fans = [example1_fan(), octahedron_fan(), random_fan_2d(rng),
            random_fan_3d(rng, 2), build_fan(1, [[1], [-1]], [[0], [1]])]
    for fan in fans:
        cc = cell_complex(fan)
        hom = reduced_homology(chain_complex(cc, nonzero_ids(fan)))
        n = fan.ambient_dim
        for d in range(-1, n):
            assert hom.betti[d] == (1 if d == n - 1 else 0)
            assert hom.torsion[d] == ()


def test_homology_orientation_independent():
    # Permuting the input rays permutes ids and flips orientation choices;
    # homology and Euler characteristics must not change.
    rays = [[1, 1], [0, 1], [-1, 1], [0, -1]]
    maximal = [[0, 1], [1, 2], [2, 3], [3, 0]]
    perm = [2, 0, 3, 1]
    rays2 = [rays[p] for p in perm]
    inv = {p: i for i, p in enumerate(perm)}
    maximal2 = [[inv[i] for i in m] for m in maximal]
    for r, m in [(rays, maximal), (rays2, maximal2)]:
        fan = build_fan(2, r, m)
        cc = cell_complex(fan)
        hom = reduced_homology(chain_complex(cc, nonzero_ids(fan)))
        assert hom.betti == {-1: 0, 0: 0, 1: 1}


def test_homology_invariant_under_orientation_flips():
    # Reversing the orientation of any cell negates its row and column of
    # incidences; homology must not notice.
    rng = random.Random(8)
    for fan in [example1_fan(), octahedron_fan()]:
        reference = reduced_homology(
            chain_complex(cell_complex(fan), nonzero_ids(fan)))
        for _ in range(5):
            cc = cell_complex(fan)
            chain_complex(cc, frozenset())  # the pass that makes the incidences
            for i in rng.sample(sorted(nonzero_ids(fan)), k=len(fan.cones) // 2):
                for key in [key for key in cc._incidence if i in key]:
                    cc._incidence[key] = -cc._incidence[key]
            ch = chain_complex(cc, nonzero_ids(fan))
            assert reduced_homology(ch).betti == reference.betti
            assert euler_characteristic(ch) == euler_characteristic(
                chain_complex(cell_complex(fan), nonzero_ids(fan)))


def test_homology_mod_p_matches_rational_without_torsion():
    fan = octahedron_fan()
    cc = cell_complex(fan)
    ch = chain_complex(cc, nonzero_ids(fan))
    hom = reduced_homology(ch)
    for p in (2, 3, 7):
        dims = homology_dims_mod_p(ch, p)
        assert dims == hom.betti


def test_betti_mod_p_matches_chain_level_reference():
    # Universal coefficients from the integral invariant factors against a
    # fresh rank over F_p; the identity is pure linear algebra, so random
    # matrices with torsion exercise it without a cell structure.
    from toricgf.cellular import ChainComplex

    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 4)
        ranks = {d: rng.randint(0, 4) for d in range(-1, n)}
        ranks[-1] = 1
        boundaries = {d: [[rng.choice([0, 0, 1, -1, 2, 3, 4, 6])
                           for _ in range(ranks[d])] for _ in range(ranks[d - 1])]
                      for d in range(0, n)}
        ch = ChainComplex(ambient_dim=n, ranks=ranks, boundaries=boundaries)
        hom = reduced_homology(ch)
        for p in (2, 3, 5):
            assert hom.betti_mod_p(p) == homology_dims_mod_p(ch, p)


def test_chain_complex_computes_incidences_only_on_the_face_relation():
    # The pass signs exactly the (cone, facet) pairs of the face relation,
    # and chain_complex reads them there.
    rng = random.Random(12)
    fans = [example1_fan(), octahedron_fan(), random_fan_2d(rng)]
    fans += [random_fan_3d(random.Random(seed), 12) for seed in range(3)]
    fans += [normal_fan_of_polytope(lattice_polytope(3, [
        [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]))[0]]
    for fan in fans:
        cc = cell_complex(fan)
        chain_complex(cc, nonzero_ids(fan))
        assert cc._incidence.keys() == {(s, t) for t, s in fan.face_relation}
        for keep in (face_closure(fan, rng.sample(fan.maximal_ids, 2)),
                     face_closure(fan, fan.ray_ids[:3])):
            ch = chain_complex(cc, keep)
            assert sum(x != 0 for mat in ch.boundaries.values() for row in mat for x in row) == \
                sum(len(fan.facet_ids(s)) for s in keep)


@pytest.mark.parametrize("keep", ["all", "one-ray"])
def test_flipped_incidence_fails_the_first_homology(keep):
    # d∘d = 0 is checked once on the whole complex, so a face relation with
    # one facet dropped from a maximal cone is caught by the first homology,
    # even of a subcomplex that misses the cone.
    fan = octahedron_fan()
    sid = fan.maximal_ids[0]
    ids = nonzero_ids(fan) if keep == "all" else face_closure(fan, fan.ray_ids[-1:])
    assert (sid in ids) == (keep == "all")
    facets = list(fan._facets_of)
    facets[sid] = facets[sid][1:]
    fan._facets_of = tuple(facets)
    with pytest.raises(InternalCheckFailed, match="boundary of boundary"):
        subcomplex_homology(cell_complex(fan), ids)
