import random
from itertools import islice, product

import pytest

from toricgf import (
    DependentGenerators,
    LaurentPolynomial,
    NotFullDimensional,
    NotPointed,
    RationalGF,
    cone_from_rays,
    cone_genfun,
    dual_cone,
    expand_in_box,
    parallelepiped_points,
    polynomial_sum,
    rational_equal,
    triangulate_halfopen,
    truncated_series,
)
from toricgf import lattice_polytope, normal_fan_of_polytope
from toricgf.genfun import (HalfOpenSimplicialCone, _divide_binomial, _reference_point_pieces,
                            _smith_parallelepiped_points, sign_canonical, times_binomials)
from toricgf.intlinalg import InternalCheckFailed, adjugate, determinant, matvec

from conftest import (POLYTOPES, example1_fan, fan3d_brion_pool, fan_battery,
                      lattice_polygon_cone, primitive_edges)
from reference import binomial_product


def in_half_open_piece(piece, x) -> bool:
    """Exact membership of a lattice point in a half-open simplicial cone."""
    gens = piece.generators
    n = len(gens[0])
    g_cols = [[gens[j][i] for j in range(n)] for i in range(n)]
    det = determinant(g_cols)
    lam_num = matvec(adjugate(g_cols), list(x))
    for i in range(n):
        num = lam_num[i] if det > 0 else -lam_num[i]
        if num < 0 or (num == 0 and not piece.closed_flags[i]):
            return False
    return True


def mono(e, c=1):
    return LaurentPolynomial.monomial(e, c)


def test_docstring_examples():
    import doctest

    import toricgf.genfun

    assert doctest.testmod(toricgf.genfun).failed == 0


def test_laurent_shift_is_monomial_multiplication():
    p = mono((0,)) + mono((1,))
    assert p.shift((1,)) == mono((1,)) + mono((2,))


def test_laurent_add_cancels_to_zero():
    p = mono((2, 3), 5) + mono((0, 0), -1)
    q = -p
    assert (p + q).is_zero()
    assert (p + q).terms == {}


def test_laurent_mul():
    one = LaurentPolynomial.constant(1, 1)
    x = mono((1,))
    assert (one - x) * (one + x) == one - mono((2,))


def test_laurent_mul_convolution_random():
    rng = random.Random(31)
    for _ in range(40):
        a = LaurentPolynomial(2, {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4)
                                  for _ in range(4)})
        b = LaurentPolynomial(2, {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4)
                                  for _ in range(4)})
        c = a * b
        for e in set(list(c.terms) + [(0, 0), (1, 1)]):
            expected = sum(ca * b.coefficient((e[0] - ea[0], e[1] - ea[1]))
                           for ea, ca in a.terms.items())
            assert c.coefficient(e) == expected


def test_rational_equal_reflecting_series_rewrite():
    # x^2/(1 - x^-1) equals -x^3/(1 - x) in the quotient field.
    a = RationalGF(mono((2,)), ((-1,),))
    b = RationalGF(mono((3,), -1), ((1,),))
    assert rational_equal(a, b)


def test_rational_equal_polynomials():
    p = mono((1, 0)) + mono((0, 1))
    assert rational_equal(RationalGF.from_polynomial(p), RationalGF.from_polynomial(p))
    q = p + mono((0, 0))
    assert not rational_equal(RationalGF.from_polynomial(p), RationalGF.from_polynomial(q))


def test_rational_equal_distinct_denominators():
    one = LaurentPolynomial.constant(1, 1)
    a = RationalGF(one, ((1,),))
    b = RationalGF(one, ((2,),))
    assert not rational_equal(a, b)


def test_rational_equal_equivalence_relation():
    rng = random.Random(5)
    for _ in range(30):
        num = LaurentPolynomial(2, {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                                    for _ in range(3)})
        base = RationalGF(num, ((1, 0), (0, 1)))
        g = (rng.randint(-2, 2), rng.randint(-2, 2))
        if g == (0, 0):
            g = (1, 1)
        scaled = RationalGF(num * binomial_product(2, [g]),
                            ((1, 0), (0, 1), g))
        other = RationalGF(num * binomial_product(2, [(1, 1)]),
                           ((1, 0), (0, 1), (1, 1)))
        assert rational_equal(base, base)
        assert rational_equal(base, scaled) and rational_equal(scaled, base)
        assert rational_equal(scaled, other) and rational_equal(base, other)



def _random_laurent(rng, dim, size=6, spread=3):
    return LaurentPolynomial(dim, {tuple(rng.randint(-spread, spread) for _ in range(dim)):
                                   rng.randint(-4, 4) for _ in range(size)})


def _random_factor(rng, dim):
    g = (0,) * dim
    while not any(g):
        g = tuple(rng.randint(-2, 2) for _ in range(dim))
    return g


def test_exact_division_round_trips():
    # (p * (1 - x^g)) / (1 - x^g) = p, for factors of either lex sign.
    rng = random.Random(73)
    signs = set()
    for dim in (1, 2, 3, 4):
        for _ in range(40):
            p = _random_laurent(rng, dim)
            g = _random_factor(rng, dim)
            signs.add(g > (0,) * dim)
            s = p * binomial_product(dim, [g])
            assert _divide_binomial(s.terms, g) == p.terms
            assert rational_equal(RationalGF(s, (g,)), RationalGF.from_polynomial(p))
            h = _random_factor(rng, dim)
            assert rational_equal(RationalGF(s, (g, h)), RationalGF(p, (h,)))
    assert signs == {True, False}


def test_exact_division_reports_a_remainder():
    rng = random.Random(79)
    for dim in (1, 2, 3, 4):
        for _ in range(40):
            p = _random_laurent(rng, dim)
            g = _random_factor(rng, dim)
            # One extra monomial leaves a remainder of +-1 on its line.
            s = p * binomial_product(dim, [g]) + mono(next(iter(p.terms), (0,) * dim),
                                                      rng.choice([-1, 1]))
            assert _divide_binomial(s.terms, g) is None
            assert not rational_equal(RationalGF(s, (g,)), RationalGF.from_polynomial(p))
            assert not rational_equal(RationalGF.from_polynomial(p), RationalGF(s, (g,)))


def test_sign_canonical_flips_lex_negative_factors():
    # 1/(1 - x^-1) = -x/(1 - x): the flipped factor moves into the numerator.
    gf = RationalGF(mono((2, 0)), ((0, 1), (-1, 3), (0, -1)))
    canon = sign_canonical(gf)
    assert canon.denominator_factors == ((0, 1), (0, 1), (1, -3))
    assert canon.numerator == mono((3, -2))
    assert rational_equal(gf, canon)
    assert sign_canonical(canon) is canon

def test_polynomial_sum_reads_flipped_factors():
    # 1/(1 - x) + 1/(1 - x^-1) = 1: Brion's formula for a point on a line.
    x = mono((1,))
    one = polynomial_sum([RationalGF(mono((0,)), ((1,),)), RationalGF(mono((0,)), ((-1,),))])
    assert one.total == 1
    # The pass held one factor and, before dividing it out, the numerator 1 - x.
    assert (one.peak_open_factors, one.peak_numerator_terms) == (1, 2)
    # The same sum with each term in the other sign form.
    assert polynomial_sum([RationalGF(-1 * mono((-1,)), ((-1,),)), RationalGF(-x, ((1,),))]
                          ).total == 1
    # The product of two such sums: four terms over a non-canonical quadrant each.
    quadrants = [RationalGF(mono((0, 0)), ((a, 0), (0, b))) for a in (1, -1) for b in (1, -1)]
    assert polynomial_sum(quadrants).total == 1


def test_polynomial_sum_with_a_squared_factor():
    # 1/(1 - x)^2 - 1/(1 - x) - x/(1 - x)^2 = 0, with (1 - x) open twice.
    x = mono((1,))
    gfs = [RationalGF(mono((0,)), ((1,), (1,))), RationalGF(-1 * mono((0,)), ((1,),)),
           RationalGF(-x, ((1,), (1,)))]
    summed = polynomial_sum(gfs)
    assert summed.total == 0 and summed.peak_open_factors == 2
    # x^2/(1 - x)^2 is 1/(1 - x^-1)^2; without its last term the sum is
    # x/(1 - x)^2, which is not a polynomial.
    assert polynomial_sum([RationalGF(mono((0,)), ((-1,), (-1,))), *gfs[1:]]).total is None
    assert polynomial_sum(gfs[:2]).total is None


def test_polynomial_sum_is_none_when_the_sum_has_a_pole():
    assert polynomial_sum([RationalGF(mono((0,)), ((1,),))]).total is None
    point = [RationalGF(mono((0,)), ((1,),)), RationalGF(mono((0,)), ((-1,),))]
    assert polynomial_sum(point + [RationalGF(mono((3,)), ((1,),))]).total is None
    # 1/(1 - x^2) - 1/(1 - x) = -x/(1 - x^2).
    assert polynomial_sum([RationalGF(mono((0,)), ((2,),)),
                           RationalGF(-1 * mono((0,)), ((1,),))]).total is None


def test_polynomial_sum_closes_a_line_after_its_last_factor():
    # (1 + x)/(1 - x^2) - 1/(1 - x) = 0, though (1 - x^2) alone leaves a
    # remainder on 1 + x: the line of (1,) closes only after both terms.
    assert polynomial_sum([RationalGF(mono((0,)) + mono((1,)), ((2,),)),
                           RationalGF(-1 * mono((0,)), ((1,),))]).total == 0


def test_polynomial_sum_of_no_terms():
    with pytest.raises(ValueError):
        polynomial_sum([])


def _flipped(rng, gf):
    """gf with each factor g rewritten at random as -x^-g/(1 - x^-g)."""
    num, factors = gf.numerator, []
    for g in gf.denominator_factors:
        if rng.random() < 0.5:
            g = tuple(-x for x in g)
            num = num.shift(g).scale(-1)
        factors.append(g)
    return RationalGF(num, tuple(factors))


def _terms_summing_to(rng, p, dim):
    """Shuffled terms whose sum is p, each factor in a random sign form: p
    over one binomial, and three pairs r/D and -r*E/(D*E) for random
    factor lists D and E, which may repeat a factor or a line."""
    g = _random_factor(rng, dim)
    terms = [RationalGF(times_binomials(p, [g]), (g,))]
    for _ in range(3):
        d = [_random_factor(rng, dim) for _ in range(rng.randint(1, 2))]
        e = [_random_factor(rng, dim) for _ in range(rng.randint(0, 2))]
        r = _random_laurent(rng, dim)
        terms += [RationalGF(r, tuple(d)), RationalGF(times_binomials(-r, e), tuple(d + e))]
    return [_flipped(rng, gf) for gf in rng.sample(terms, len(terms))]


def test_polynomial_sum_agrees_with_the_plain_sum_on_random_terms():
    rng = random.Random(89)
    for dim in (1, 2, 3):
        for _ in range(30):
            p = _random_laurent(rng, dim)
            gfs = _terms_summing_to(rng, p, dim)
            assert polynomial_sum(gfs).total == p
            # One monomial more over a term's denominator adds a pole.
            k = rng.randrange(len(gfs))
            gfs[k] = RationalGF(gfs[k].numerator + mono((0,) * dim), gfs[k].denominator_factors)
            plain = gfs[0]
            for gf in gfs[1:]:
                plain = plain + gf
            assert not rational_equal(plain, RationalGF.from_polynomial(p))
            assert polynomial_sum(gfs).total is None


def test_triangulate_simplicial_identity():
    c = cone_from_rays(2, [(1, 0), (1, 2)])
    pieces = triangulate_halfopen(c)
    assert len(pieces) == 1
    assert set(pieces[0].generators) == {(1, 0), (1, 2)}
    assert pieces[0].closed_flags == (True, True)


def test_triangulate_cone_over_square():
    c = cone_from_rays(3, [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)])
    pieces = triangulate_halfopen(c)
    assert len(pieces) == 2
    # the shared interior wall is open in exactly one piece
    opens = [sum(1 for f in p.closed_flags if not f) for p in pieces]
    assert sorted(opens) == [0, 1]


def test_triangulate_halfopen_disjoint_cover():
    cones = [
        cone_from_rays(3, [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)]),
        cone_from_rays(2, [(1, 0), (1, 3)]),
        cone_from_rays(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2), (0, 0, 1)]),
    ]
    for c in cones:
        pieces = triangulate_halfopen(c)
        n = c.ambient_dim
        for pt in product(range(-3, 4), repeat=n):
            inside = c.contains(pt)
            hits = sum(1 for p in pieces if in_half_open_piece(p, pt))
            assert hits == (1 if inside else 0), (c, pt)


def test_triangulate_cone_over_a_48_gon():
    # 48 rays: more than the 46 prime weights offer a window for, so the
    # reference point comes from the moment curve.
    c = lattice_polygon_cone(primitive_edges(6))
    assert len(c.rays) == 48
    pieces = triangulate_halfopen(c)
    assert len(pieces) == 46
    for pt in product(range(-3, 4), range(-3, 4), range(0, 3)):
        hits = sum(1 for p in pieces if in_half_open_piece(p, pt))
        assert hits == (1 if c.contains(pt) else 0), pt


def test_reference_point_keeps_the_prime_windows():
    # Where a window of consecutive primes works, it is still the one used.
    from toricgf.genfun import _reference_weights

    weights = _reference_weights(4)
    assert next(weights) == [2, 3, 5, 7]
    assert list(islice(weights, 41))[-1] == [181, 191, 193, 197]
    assert next(weights) == [1, 1, 1, 1]
    assert next(weights) == [1, 2, 4, 8]


# Polytopes whose vertex cones are simplicial but not unimodular.
NON_UNIMODULAR = (
    (3, [[0, 0, 0], [5, 0, 0], [0, 7, 0], [0, 0, 11]]),  # simplex-5-7-11
    (3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 3]]),   # reeve-3
    (2, [[0, 0], [4, 0], [0, 3]]),                       # triangle-4-3
)


@pytest.mark.parametrize("battery", ["acceptance", "pool", "deep", "polytopes", "cross4d"])
def test_simplicial_piece_equals_the_reference_point_path(battery, request):
    fans = [h.fan for _, h in fan_battery(battery, request)]
    if battery == "polytopes":
        fans += [normal_fan_of_polytope(lattice_polytope(dim, verts))[0]
                 for dim, verts in NON_UNIMODULAR]
    simplicial = non_unimodular = 0
    for fan in fans:
        for c in (cone for i in fan.maximal_ids
                  for cone in (fan.cones[i], dual_cone(fan.cones[i]))):
            if c.dim == len(c.rays) == c.ambient_dim:
                assert triangulate_halfopen(c) == _reference_point_pieces(c), c
                simplicial += 1
                non_unimodular += abs(determinant([list(r) for r in c.rays])) > 1
    assert simplicial
    if battery == "polytopes":
        assert non_unimodular >= 8


def test_brion_cones_of_the_pool_compute_no_facet_normals(monkeypatch):
    from toricgf import genfun, support_from_ray_values

    real, calls = genfun._simplex, []
    monkeypatch.setattr(genfun, "_simplex", lambda *args: calls.append(args) or real(*args))
    for fan in fan3d_brion_pool():
        h = support_from_ray_values(fan, [0] * len(fan.input_rays))
        for i in fan.maximal_ids:
            cone_genfun(tuple(-x for x in h.linear_part(i)), dual_cone(fan.cones[i]))
    assert calls == []


def test_piece_normals_follow_the_generator_order(monkeypatch):
    # Each flag belongs to the facet opposite its generator, in any order of
    # the generators; a piece of dependent generators is an internal error.
    from toricgf import genfun

    c = cone_from_rays(3, [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1), (0, 2, 1)])
    pieces = _reference_point_pieces(c)
    assert len({p.closed_flags for p in pieces}) > 1
    monkeypatch.setattr(genfun, "_triangulate_rays",
                        lambda c: [p.generators[1:] + p.generators[:1] for p in pieces])
    assert _reference_point_pieces(c) == [HalfOpenSimplicialCone(
        p.generators[1:] + p.generators[:1], p.closed_flags[1:] + p.closed_flags[:1])
        for p in pieces]
    monkeypatch.setattr(genfun, "_triangulate_rays",
                        lambda c: [((1, 0, 0), (0, 1, 0), (1, 1, 0))])
    with pytest.raises(InternalCheckFailed, match="dependent generators"):
        _reference_point_pieces(c)


def test_triangulate_requires_pointed_full_dim():
    with pytest.raises(NotPointed):
        triangulate_halfopen(cone_from_rays(2, [(1, 0), (-1, 0), (0, 1)]))
    with pytest.raises(NotFullDimensional):
        triangulate_halfopen(cone_from_rays(2, [(1, 0)]))


def test_parallelepiped_unimodular():
    assert parallelepiped_points([(1, 0), (-1, 1)]) == [(0, 0)]


def test_parallelepiped_det2():
    pts = parallelepiped_points([(1, 0), (1, 2)])
    assert pts == [(0, 0), (1, 1)]


def test_parallelepiped_flags_preserve_count():
    gens = [(1, 0), (1, 2)]
    for flags in product([True, False], repeat=2):
        pts = parallelepiped_points(gens, flags)
        assert len(pts) == 2
        # brute-force check against the half-open condition
        expected = []
        for pt in product(range(-3, 4), repeat=2):
            lam1 = (pt[0] * 2 - pt[1] * 1, 2)  # (num, den) of inverse solve
            lam2 = (pt[1], 2)
            ok = True
            for (num, den), closed in zip((lam1, lam2), flags):
                if closed:
                    ok = ok and 0 <= num < den
                else:
                    ok = ok and 0 < num <= den
            if ok:
                expected.append(pt)
        assert sorted(expected) == pts


def smith_parallelepiped(gens, flags):
    """The parallelepiped's points by the Smith form path, whatever the
    determinant."""
    n = len(gens)
    g_cols = [[gens[j][i] for j in range(n)] for i in range(n)]
    return sorted(_smith_parallelepiped_points(g_cols, determinant(g_cols), flags))


def random_unimodular(rng, n):
    """A product of random row additions, swaps and sign flips."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-3, 3)
        rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i], rows[j] = rows[j], [-x for x in rows[i]]
    return [tuple(r) for r in rows]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unimodular_parallelepiped_equals_the_smith_path(n):
    rng = random.Random(1400 + n)
    for _ in range(30):
        gens = random_unimodular(rng, n)
        assert abs(determinant(gens)) == 1
        for flags in product((True, False), repeat=n):
            assert parallelepiped_points(gens, flags) == smith_parallelepiped(gens, flags)


def test_polytope_corpus_pieces_equal_the_smith_path():
    unimodular = 0
    for _, dim, verts in POLYTOPES:
        fan, _ = normal_fan_of_polytope(lattice_polytope(dim, verts))
        for i in fan.maximal_ids:
            for piece in triangulate_halfopen(dual_cone(fan.cones[i])):
                gens, flags = piece.generators, piece.closed_flags
                unimodular += abs(determinant(gens)) == 1
                assert parallelepiped_points(gens, flags) == smith_parallelepiped(gens, flags)
    assert unimodular > 0


def test_parallelepiped_rejects_dependent():
    with pytest.raises(DependentGenerators):
        parallelepiped_points([(1, 0), (2, 0)])
    with pytest.raises(DependentGenerators):
        parallelepiped_points([(1, 0, 0), (0, 1, 0)])


def test_cone_genfun_worked_term():
    # shift (-2,2) on cone((1,0),(-1,1)): x^-2 y^2 / ((1-x^-1 y)(1-x))
    gf = cone_genfun((-2, 2), cone_from_rays(2, [(1, 0), (-1, 1)]))
    assert gf.numerator == mono((-2, 2))
    assert gf.denominator_factors == ((-1, 1), (1, 0))


def test_cone_genfun_dim1():
    gf = cone_genfun((2,), cone_from_rays(1, [(-1,)]))
    assert gf.numerator == mono((2,))
    assert gf.denominator_factors == ((-1,),)


def test_cone_genfun_orthant():
    gf = cone_genfun((0, 0), cone_from_rays(2, [(1, 0), (0, 1)]))
    assert gf.numerator == mono((0, 0))
    assert gf.denominator_factors == ((0, 1), (1, 0))


def test_truncated_series_halfline():
    c = cone_from_rays(1, [(-1,)])
    s = truncated_series((2,), c, [(-1, 3)])
    assert s.coefficients == {(-1,): 1, (0,): 1, (1,): 1, (2,): 1}


def test_truncated_series_empty_and_full():
    c = cone_from_rays(2, [(1, 0), (0, 1)])
    s = truncated_series((10, 10), c, [(-2, 2), (-2, 2)])
    assert s.coefficients == {}
    whole = dual_cone(cone_from_rays(2, []))
    s2 = truncated_series((0, 0), whole, [(-1, 1), (-1, 1)])
    assert len(s2.coefficients) == 9


def test_expand_matches_truncated_series():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.choice([1, 2, 2, 3])
        gens = []
        while True:
            gens = [tuple(rng.randint(-2, 2) for _ in range(n))
                    for _ in range(rng.randint(n, n + 1))]
            gens = [g for g in gens if any(g)]
            if not gens:
                continue
            c = cone_from_rays(n, gens)
            if c.pointed and c.dim == n:
                break
        shift = tuple(rng.randint(-2, 2) for _ in range(n))
        lo = [rng.randint(-4, 0) for _ in range(n)]
        box = [(l, l + rng.randint(2, 5)) for l in lo]
        gf = cone_genfun(shift, c)
        assert expand_in_box(gf, box) == truncated_series(shift, c, box)


def test_shift_law():
    rng = random.Random(13)
    c = cone_from_rays(2, [(2, 1), (-1, 1)])
    for _ in range(10):
        b = (rng.randint(-2, 2), rng.randint(-2, 2))
        extra = (rng.randint(-2, 2), rng.randint(-2, 2))
        lhs = cone_genfun(tuple(x + y for x, y in zip(b, extra)), c)
        base = cone_genfun(b, c)
        rhs = RationalGF(base.numerator.shift(extra), base.denominator_factors)
        assert rational_equal(lhs, rhs)


def test_cone_genfun_rejects_bad_cones():
    with pytest.raises(NotPointed):
        cone_genfun((0, 0), cone_from_rays(2, [(1, 0), (-1, 0), (0, 1)]))
    with pytest.raises(NotFullDimensional):
        cone_genfun((0, 0), cone_from_rays(2, [(1, 1)]))


def test_example1_brion_fractions():
    # all four shifted dual cone generating functions from the worked fan
    fan = example1_fan()
    from toricgf import support_from_ray_values

    h = support_from_ray_values(fan, [0, -2, 0, -2])
    expected = {
        ((1, 1), (0, 1)): (mono((-2, 2)), ((-1, 1), (1, 0))),
        ((0, 1), (-1, 1)): (mono((2, 2)), ((-1, 0), (1, 1))),
        ((-1, 1), (0, -1)): (mono((-2, -2)), ((-1, -1), (-1, 0))),
        ((0, -1), (1, 1)): (mono((2, -2)), ((1, -1), (1, 0))),
    }
    for rays, (num, dens) in expected.items():
        sid = fan.cone_id(rays)
        gf = cone_genfun(tuple(-x for x in h.linear_part(sid)),
                         dual_cone(fan.cones[sid]))
        assert gf.numerator == num
        assert gf.denominator_factors == tuple(sorted(dens))
