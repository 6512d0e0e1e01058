import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from toricgf import (
    LaurentPolynomial,
    RationalGF,
    ShellCheckFailed,
    brion_sum,
    brion_terms,
    build_fan,
    check_complete,
    chi_polynomial,
    cohomology_table,
    degree_region,
    dual_cone,
    graded_cohomology,
    membership,
    normal_fan_of_polytope,
    lattice_polytope,
    polynomial_sum,
    rational_equal,
    signed_count,
    support_from_ray_values,
    support_subcomplex,
    triangulate_halfopen,
    verify_identity,
)
from toricgf.cohomology import DegreeRegion, check_shell, sweep_index
from toricgf.intlinalg import determinant, dot, kernel_basis
from toricgf.polyhedral import SupportFunction

from conftest import (
    DEEP_DEPTHS,
    DEEP_SEEDS,
    POLYTOPES,
    cross_multiplied_equal,
    example1_fan,
    example1_support,
    octahedron_fan,
    random_battery,
    random_fan_2d,
    random_fan_3d,
    random_polytope_points,
    random_support_2d,
    random_support_3d,
    rp2_torsion_fan_data,
    total_dims,
    unit_square,
)

EX1_CHI = LaurentPolynomial(2, {(0, -1): 1, (0, 0): -1, (-1, 1): -1,
                                (0, 1): -1, (1, 1): -1})


def test_membership_examples(ex1):
    fan = ex1.fan
    sid = fan.cone_id([(1, 1), (0, 1)])
    # b + h_sigma = (2,-3) pairs to -1 against v1
    assert not membership(ex1, sid, (0, -1))
    assert membership(ex1, fan.zero_id, (123, -456))
    assert membership(ex1, sid, tuple(-x for x in ex1.linear_part(sid)))


def test_support_subcomplex_worked_values(ex1):
    fan = ex1.fan
    assert support_subcomplex(ex1, (0, -1)) == frozenset()
    s = support_subcomplex(ex1, (0, 0))
    assert {fan.cones[i].rays for i in s} == {((1, 1),), ((-1, 1),)}


def test_support_subcomplex_full_sphere():
    fan, h = normal_fan_of_polytope(
        lattice_polytope(2, [[0, 0], [3, 0], [0, 3], [3, 3]]))
    inner = (1, 1)
    s = support_subcomplex(h, inner)
    assert len(s) == len(fan.cones) - 1


def test_graded_cohomology_worked_table(ex1):
    assert graded_cohomology(ex1, (0, -1))[0] == (0, 0, 1)
    for b in [(0, 0), (-1, 1), (0, 1), (1, 1)]:
        assert graded_cohomology(ex1, b)[0] == (0, 1, 0)
    assert graded_cohomology(ex1, (5, 5))[0] == (0, 0, 0)


def test_graded_cohomology_square_origin():
    fan, h = normal_fan_of_polytope(unit_square())
    assert graded_cohomology(h, (0, 0))[0] == (1, 0, 0)


def test_signed_count_examples(ex1):
    assert signed_count(ex1, (0, -1)) == 1
    assert signed_count(ex1, (0, 0)) == -1
    # far away degrees with contractible support complexes contribute zero
    for b in [(7, 0), (-6, 2), (0, 9), (5, -5)]:
        assert signed_count(ex1, b) == 0


def test_signed_count_equals_chain_euler_characteristic(ex1):
    for b in product(range(-3, 4), repeat=2):
        dims, _ = graded_cohomology(ex1, b)
        assert signed_count(ex1, b) == dims[0] - dims[1] + dims[2]


def test_degree_region_example1(ex1):
    reg = degree_region(ex1)
    assert reg.box == ((-2, 2), (-2, 2))
    for b in [(0, -1), (0, 0), (-1, 1), (0, 1), (1, 1)]:
        assert b in reg.candidates


def test_degree_region_zero_support():
    fan = example1_fan()
    h = support_from_ray_values(fan, [0, 0, 0, 0])
    reg = degree_region(h)
    assert reg.box == ((0, 0), (0, 0))
    assert reg.candidates == ((0, 0),)


def test_degree_region_segment():
    fan, h = normal_fan_of_polytope(lattice_polytope(1, [[0], [2]]))
    reg = degree_region(h)
    assert set(reg.candidates) >= {(0,), (1,), (2,)}


def test_shell_check_flags_undersized_box(ex1):
    with pytest.raises(ShellCheckFailed):
        check_shell(ex1, ((0, 0), (0, 0)))


def test_cohomology_table_example1(ex1):
    table = cohomology_table(ex1)
    assert set(table.entries) == {(0, -1), (0, 0), (-1, 1), (0, 1), (1, 1)}
    dims, torsion, chi = table.entries[(0, -1)]
    assert dims == (0, 0, 1) and chi == 1
    for b in [(0, 0), (-1, 1), (0, 1), (1, 1)]:
        dims, torsion, chi = table.entries[b]
        assert dims == (0, 1, 0) and chi == -1
        assert all(t == () for t in torsion)
    assert total_dims(table) == (0, 4, 1)


def test_cohomology_table_square():
    fan, h = normal_fan_of_polytope(unit_square())
    table = cohomology_table(h)
    assert set(table.entries) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert all(v[0] == (1, 0, 0) for v in table.entries.values())


def test_cohomology_table_serre_dual_square():
    fan, h = normal_fan_of_polytope(
        lattice_polytope(2, [[0, 0], [2, 0], [0, 2], [2, 2]]))
    neg = support_from_ray_values(fan, [-h.value(r) for r in fan.input_rays])
    table = cohomology_table(neg)
    assert set(table.entries) == {(-1, -1)}
    assert table.entries[(-1, -1)][0] == (0, 0, 1)


def test_table_keeps_the_first_degree_of_each_distinct_subcomplex():
    rng = random.Random(71)
    for k in range(6):
        fan = random_fan_3d(rng, k % 3)
        h = random_support_3d(rng, fan, spread=2)
        table = cohomology_table(h)
        firsts = {}
        for b in table.region.candidates:
            firsts.setdefault(support_subcomplex(h, b), b)
        assert [(b, sub.keep) for b, sub in table.subcomplexes] == \
            [(b, keep) for keep, b in firsts.items()]
        assert not hasattr(table, "degrees")


def test_rp2_fan_has_two_torsion_at_degree_zero():
    # The degree-0 subcomplex is RP^2: H_1 = Z/2 gives torsion [2] at
    # cohomology index 3, which F_2 sees as h2 = h3 = 1 and F_3 does not.
    rays, maximal, values = rp2_torsion_fan_data()
    fan = build_fan(5, rays, maximal)
    assert (len(fan.rays), len(fan.maximal_ids), len(fan.cones)) == (16, 90, 627)
    assert check_complete(fan).complete
    idx = sweep_index(support_from_ray_values(fan, values))
    sub = idx.subcomplex((0,) * 5)
    dims, torsion, chi = idx.cohomology(sub)
    assert (dims, chi) == ((0,) * 6, 0)
    assert [list(t) for t in torsion] == [[], [], [], [2], [], []]
    assert idx.cohomology(sub, 2)[0] == (0, 0, 1, 1, 0, 0)
    assert idx.cohomology(sub, 3)[0] == (0,) * 6


@pytest.mark.parametrize("p", [None, 2], ids=["rational", "modp-2"])
def test_rp2_fan_table_and_identity_over_a_small_box(p):
    # The box (-1..1)^5 holds the torsion degree: its shell check passes,
    # the torsion entry at degree 0 is the table's only one, and the
    # identity holds with every corollary.
    rays, maximal, values = rp2_torsion_fan_data()
    h = support_from_ray_values(build_fan(5, rays, maximal), values)
    table = cohomology_table(h, p, DegreeRegion(((-1, 1),) * 5))
    assert len(table.subcomplexes) == 198
    dims = (0, 0, 1, 1, 0, 0) if p == 2 else (0,) * 6
    assert table.entries == {(0,) * 5: (dims, ((),) * 3 + ((2,),) + ((),) * 2, 0)}
    report = verify_identity(h, table, brion_terms(h))
    assert report.identity_holds
    assert all(c.holds for c in report.corollary_results.values())


def test_chi_polynomial_example1(ex1):
    assert chi_polynomial(ex1) == EX1_CHI


def test_chi_polynomial_globally_linear():
    # Linear part m everywhere puts the only cohomology in degree -m.
    fan = example1_fan()
    for a in [(0, 0), (2, -1), (-1, 3)]:
        values = [dot(a, r) for r in fan.input_rays]
        h = support_from_ray_values(fan, values)
        assert chi_polynomial(h) == LaurentPolynomial.monomial(tuple(-x for x in a))


def test_chi_polynomial_unit_square():
    fan, h = normal_fan_of_polytope(unit_square())
    expected = LaurentPolynomial(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert chi_polynomial(h) == expected


def test_brion_terms_example1(ex1):
    terms = brion_terms(ex1)
    assert len(terms) == 4
    fan = ex1.fan
    sid = fan.cone_id([(1, 1), (0, 1)])
    gf = dict(terms)[sid]
    assert gf.numerator == LaurentPolynomial.monomial((-2, 2))
    assert gf.denominator_factors == ((-1, 1), (1, 0))


def test_brion_sum_trivial_bundle():
    fan = octahedron_fan()
    h = support_from_ray_values(fan, [0] * 6)
    total = brion_sum(h)
    one = RationalGF.from_polynomial(LaurentPolynomial.constant(3, 1))
    assert rational_equal(total, one)


def test_brion_sum_segment():
    fan, h = normal_fan_of_polytope(lattice_polytope(1, [[0], [2]]))
    total = brion_sum(h)
    expected = LaurentPolynomial(1, {(0,): 1, (1,): 1, (2,): 1})
    assert rational_equal(total, RationalGF.from_polynomial(expected))


def _polytope_supports():
    return [normal_fan_of_polytope(lattice_polytope(dim, verts))[1]
            for _, dim, verts in POLYTOPES]


def test_brion_sum_matches_the_uncanonicalised_sum():
    # The sign-canonical sum is the same rational function as the plain sum
    # of the terms, by cross-multiplication; its factors are lex-positive,
    # one per line of dual edges, so no pair g, -g survives.
    for h in [h for _, h in random_battery()] + _polytope_supports():
        terms = brion_terms(h)
        plain = None
        for _, gf in terms:
            plain = gf if plain is None else plain + gf
        total = brion_sum(h, terms)
        assert cross_multiplied_equal(total, plain) and rational_equal(plain, total)
        zero = (0,) * h.fan.ambient_dim
        assert all(g > zero for g in total.denominator_factors)
        lines = {max(u, tuple(-x for x in u)) for i in h.fan.maximal_ids
                 for u in dual_cone(h.fan.cones[i]).rays}
        assert len(total.denominator_factors) == len(lines)


def _doctored(table, b, delta):
    """The table with the Euler characteristic at degree b moved by delta."""
    n = table.ambient_dim
    dims, torsion, chi = table.entries.get(b, ((0,) * (n + 1), ((),) * (n + 1), 0))
    return replace(table, entries={**table.entries, b: (dims, torsion, chi + delta)})


def test_identity_fails_on_a_doctored_chi_coefficient(ex1):
    rng = random.Random(83)
    supports = [ex1]
    for k in range(20):
        fan = random_fan_3d(rng, k % 3)
        supports.append(random_support_3d(rng, fan, spread=1 + k % 2))
    for h in supports:
        table = cohomology_table(h)
        terms = brion_terms(h)
        assert verify_identity(h, table, terms).identity_holds
        degrees = sorted(table.entries) or [(0,) * h.fan.ambient_dim]
        for b in (degrees[0], degrees[-1]):
            for delta in (1, -1):
                report = verify_identity(h, _doctored(table, b, delta), terms)
                assert not report.identity_holds
                assert not rational_equal(brion_sum(h, terms),
                                          RationalGF.from_polynomial(report.chi_polynomial))


def test_headline_fan_identity_with_halved_denominator():
    # random_fan_3d(Random(1), 12) with spread-2 support: 32 maximal cones
    # whose 42 dual edge directions lie on 21 lines.  Summed without the
    # sign rewrite, the denominator had 42 factors and the check took over
    # 20 s.
    fan = random_fan_3d(random.Random(1), 12)
    h = random_support_3d(random.Random(1), fan, spread=2)
    report = verify_identity(h)
    assert report.identity_holds
    assert len(brion_sum(h).denominator_factors) == 21
    assert all(c.holds for c in report.corollary_results.values())


@pytest.mark.parametrize("k, peaks", [(12, (8, 427)), (24, (11, 1540))])
def test_headline_fan_identity_in_one_pass(k, peaks):
    # random_fan_3d(Random(1), k) with spread-2 support.  At k=24 (56 maximal
    # cones) the sum over the whole common denominator had 41 factors and
    # 155,710 numerator terms; the one pass holds at most 11 factors and
    # 1,540 terms, and builds no lhs unless it is read.
    fan = random_fan_3d(random.Random(1), k)
    h = random_support_3d(random.Random(1), fan, spread=2)
    report = verify_identity(h)
    assert report.identity_holds
    assert all(c.holds for c in report.corollary_results.values())
    assert (report.peak_open_factors, report.peak_numerator_terms) == peaks
    assert "lhs" not in vars(report)


def test_verify_identity_example1(ex1):
    rep = verify_identity(ex1)
    assert rep.identity_holds
    assert rep.chi_polynomial == EX1_CHI
    assert all(c.holds for c in rep.corollary_results.values())


def test_verify_identity_polytopes():
    for pts, dim in [([[0], [3]], 1),
                     ([[0, 0], [2, 0], [0, 2]], 2),
                     ([[0, 0], [1, 0], [0, 1], [1, 1]], 2)]:
        fan, h = normal_fan_of_polytope(lattice_polytope(dim, pts))
        rep = verify_identity(h)
        assert rep.identity_holds
        assert all(c.holds for c in rep.corollary_results.values())


def test_random_polytope_battery_verifies_the_identity(monkeypatch):
    # Seeded 3-D polytopes of 8-12 points in [-2, 2]^3: their tangent cones
    # are mostly not simplicial, their triangulations have several pieces,
    # and many pieces have |det| > 1, so the Brion terms run the Smith
    # parallelepiped path.  Wider boxes derive degree regions of hundreds
    # of degrees per axis, and the table then costs seconds per polytope.
    from toricgf import genfun

    real, smith = genfun._smith_parallelepiped_points, []
    monkeypatch.setattr(genfun, "_smith_parallelepiped_points",
                        lambda *args: smith.append(args) or real(*args))
    kinds = Counter()
    for pts in random_polytope_points():
        p = lattice_polytope(3, pts)
        _, h = normal_fan_of_polytope(p)
        terms = brion_terms(h)
        report = verify_identity(h, terms=terms)
        assert report.identity_holds, pts
        assert all(c.holds for c in report.corollary_results.values()), pts
        summed = polynomial_sum(gf for _, gf in terms).total
        assert rational_equal(brion_sum(h, terms), RationalGF.from_polynomial(summed)), pts
        for c in p.tangent_cones:
            pieces = triangulate_halfopen(c)
            kinds["not simplicial"] += len(c.rays) > 3
            kinds["several pieces"] += len(pieces) > 1
            kinds["|det| > 1"] += sum(abs(determinant(q.generators)) > 1 for q in pieces)
    assert min(kinds.values()) >= 30 and len(kinds) == 3 and len(smith) >= 30


def test_octahedron_polytope_nonsimplicial_cones():
    # normal fan cones over squares exercise genuine multi-piece
    # triangulations of the shifted duals
    p = lattice_polytope(3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                             [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    fan, h = normal_fan_of_polytope(p)
    assert all(len(fan.cones[i].rays) == 4 for i in fan.maximal_ids)
    chi = chi_polynomial(h)
    assert sorted(chi.terms) == sorted(
        [(0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0),
         (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    assert all(c == 1 for c in chi.terms.values())
    rep = verify_identity(h)
    assert rep.identity_holds
    assert all(c.holds for c in rep.corollary_results.values())


def test_square_pyramid_fan_nonconvex_support():
    rays = [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1), (0, 0, -1)]
    maximal = [[0, 1, 2, 3], [0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
    from toricgf import build_fan, check_complete

    fan = build_fan(3, rays, maximal)
    assert check_complete(fan).complete
    for values in [(1, 1, 1, 1, 0), (-1, -1, -1, -1, 0), (2, 0, 0, 2, -1)]:
        h = support_from_ray_values(fan, values)
        rep = verify_identity(h)
        assert rep.identity_holds
        assert all(c.holds for c in rep.corollary_results.values())


def test_linear_part_choice_independence(ex1):
    # Shifting a non-maximal linear part by anything vanishing on the cone's
    # rays cannot change any membership answer.
    fan = ex1.fan
    rng = random.Random(3)
    for cid, c in enumerate(fan.cones):
        if c.dim == fan.ambient_dim or c.dim == 0:
            continue
        for m in kernel_basis([list(r) for r in c.rays], cols=2):
            parts = dict(ex1.linear_parts)
            parts[cid] = tuple(a + rng.choice([-2, 1]) * b
                               for a, b in zip(parts[cid], m))
            h2 = SupportFunction(fan=fan, ray_values=ex1.ray_values,
                                 linear_parts=parts)
            for _ in range(20):
                b = (rng.randint(-3, 3), rng.randint(-3, 3))
                assert membership(h2, cid, b) == membership(ex1, cid, b)


def test_top_cohomology_formula_random():
    rng = random.Random(41)
    for _ in range(15):
        fan = random_fan_2d(rng)
        h = random_support_2d(rng, fan)
        n = fan.ambient_dim
        for b in degree_region(h).candidates:
            dims, _ = graded_cohomology(h, b)
            empty = not support_subcomplex(h, b)
            assert dims[n] == (1 if empty else 0)
            if empty:
                assert all(d == 0 for d in dims[:n])


def test_h0_hn_exclusive_random():
    rng = random.Random(43)
    for _ in range(15):
        fan = random_fan_3d(rng, rng.choice([0, 1]))
        h = random_support_3d(rng, fan)
        table = cohomology_table(h)
        totals = total_dims(table)
        assert totals[0] * totals[-1] == 0


def test_reduced_euler_coefficient_random():
    from toricgf.cellular import fan_cell_complex, subcomplex_homology

    rng = random.Random(47)
    for _ in range(10):
        fan = random_fan_2d(rng)
        h = random_support_2d(rng, fan)
        chi = chi_polynomial(h)
        n = fan.ambient_dim
        cc = fan_cell_complex(fan)
        for b in degree_region(h).candidates:
            hom = subcomplex_homology(cc, support_subcomplex(h, b))
            reduced = sum((-1) ** d * hom.betti[d] for d in range(-1, n))
            assert chi.coefficient(b) == (-1) ** (n - 1) * reduced


def test_four_dimensional_cross_polytope_fan():
    from toricgf import build_fan, check_complete

    rays = []
    for i in range(4):
        rays.append(tuple(1 if j == i else 0 for j in range(4)))
        rays.append(tuple(-1 if j == i else 0 for j in range(4)))
    maximal = [[2 * 0 + a, 2 * 1 + b, 2 * 2 + c, 2 * 3 + d]
               for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1)]
    fan = build_fan(4, rays, maximal)
    assert len(fan.cones) == 81
    assert check_complete(fan).complete
    h = support_from_ray_values(fan, [0] * 8)
    assert chi_polynomial(h) == LaurentPolynomial.constant(4, 1)
    assert verify_identity(h).identity_holds
    a = (1, -1, 2, 0)
    h2 = support_from_ray_values(fan, [-dot(a, r) for r in fan.input_rays])
    assert chi_polynomial(h2) == LaurentPolynomial.monomial(a)
    assert verify_identity(h2).identity_holds


def test_mod_p_dimensions():
    fan, h = normal_fan_of_polytope(unit_square())
    table_q = cohomology_table(h)
    table_2 = cohomology_table(h, p=2)
    assert {k: v[0] for k, v in table_q.entries.items()} == \
        {k: v[0] for k, v in table_2.entries.items()}


def test_deep_random_fans_build(deep_fans):
    from toricgf import check_complete

    assert len(deep_fans) == len(DEEP_SEEDS) * len(DEEP_DEPTHS)
    for fan in deep_fans:
        assert check_complete(fan).complete


def test_deeper_random_fans_build():
    # 24 subdivisions: 56 maximal cones, 1,540 pairs for the pair check.
    from toricgf import check_complete

    for seed in range(10):
        fan = random_fan_3d(random.Random(seed), 24)
        assert len(fan.maximal_ids) == 56
        assert check_complete(fan).complete


def test_sweep_matches_per_cone_membership_on_deep_fans(deep_fans):
    rng = random.Random(61)
    for fan in deep_fans:
        h = random_support_3d(rng, fan, spread=2)
        n = fan.ambient_dim
        for _ in range(120):
            b = tuple(rng.randint(-6, 6) for _ in range(n))
            member = [membership(h, i, b) for i in range(len(fan.cones))]
            keep = frozenset(i for i, c in enumerate(fan.cones)
                             if c.dim > 0 and member[i])
            signed = sum((-1) ** (n - c.dim)
                         for i, c in enumerate(fan.cones) if member[i])
            assert support_subcomplex(h, b) == keep
            assert signed_count(h, b) == signed


def test_identity_over_a_mod_p_table_matches_rational_on_random_3d_fans():
    # The identity and the corollaries read whatever table the run built;
    # chi is field-independent and the corollaries read rational cohomology.
    rng = random.Random(67)
    for k in range(12):
        fan = random_fan_3d(rng, k % 4)
        h = random_support_3d(rng, fan, spread=1 + k % 2)
        rational = verify_identity(h)
        over_f2 = verify_identity(h, cohomology_table(h, p=2))
        assert over_f2.chi_polynomial == rational.chi_polynomial
        assert over_f2.identity_holds == rational.identity_holds
        assert over_f2.corollary_results == rational.corollary_results
        assert over_f2.region == rational.region
