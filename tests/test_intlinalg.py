import random
from collections import Counter

import pytest

from toricgf.intlinalg import (
    adjugate,
    cramer,
    cross_product,
    determinant,
    dot,
    identity_matrix,
    invariant_factors,
    kernel_basis,
    matvec,
    primitive_vector,
    rank,
    rank_mod_p,
    rationally_solvable,
    smith_normal_form,
    solve_integral,
    unimodular_inverse,
)

from reference import determinantal_factors, fraction_rank, matmul, minor_adjugate


def check_snf(a):
    res = smith_normal_form(a)
    rows, cols = len(a), len(a[0]) if a else 0
    assert matmul(matmul(res.U, a), res.V) == res.D
    assert determinant(res.U) in (1, -1)
    assert determinant(res.V) in (1, -1)
    diag = res.diagonal()
    for i in range(min(rows, cols)):
        for j in range(min(rows, cols)):
            if i != j:
                assert res.D[i][j] == 0
    for d, e in zip(diag, diag[1:]):
        assert d >= 0
        if d != 0:
            assert e % d == 0
        else:
            assert e == 0
    return res


def test_snf_identity():
    res = check_snf(identity_matrix(3))
    assert res.D == identity_matrix(3)
    assert res.U == identity_matrix(3)
    assert res.V == identity_matrix(3)


def test_snf_diag_2_3():
    res = check_snf([[2, 0], [0, 3]])
    assert res.diagonal() == [1, 6]


def test_snf_zero_matrix():
    res = check_snf([[0, 0], [0, 0]])
    assert res.diagonal() == [0, 0]
    assert len(invariant_factors([[0, 0], [0, 0]])) == 0


def test_snf_random_matrices():
    rng = random.Random(7)
    for _ in range(120):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        res = check_snf(a)
        nonzero = [x for x in res.diagonal() if x != 0]
        assert len(nonzero) == fraction_rank(a)
        assert nonzero == invariant_factors(a)


# Matrices on which the Euclid-with-swaps Smith step grew its entries
# without bound: a random 6x3 matrix, the six rays of the apex's normal cone
# of the hexagonal pyramid in test_cli, and an inequality matrix that
# test_face_lattice_matches_facet_subset_enumeration ranks.
GROWTH = {
    "6x3": [[-163, 282, -236], [-39, -180, 207], [160, 183, 88], [-86, -204, 199],
            [-271, 99, 143], [-298, 156, -28]],
    "apex": [[-7085, -4796, -10121], [-6649, 2943, -9225], [-2289, 17222, -20723],
             [1853, -16568, -19263], [5995, 4687, -9222], [7957, -3161, -9744]],
    "inequalities": [[3, 35, 47, 54], [15, 23, 7, 42], [17, -55, -63, -74],
                     [36, 208, 193, 277], [37, -34, -68, -56], [51, 146, 69, 188]],
}


@pytest.mark.parametrize("name", GROWTH)
def test_smith_form_of_a_growth_matrix_equals_the_determinantal_divisors(name):
    a = GROWTH[name]
    factors = determinantal_factors(a)
    assert invariant_factors(a) == factors
    assert [x for x in check_snf(a).diagonal() if x] == factors


def test_smith_form_of_wide_entries_equals_the_determinantal_divisors():
    # Trials 0 and 55 are the two that the Euclid-with-swaps step could not
    # finish in 2 s.
    rng = random.Random(1)
    for trial in range(300):
        a = [[rng.randint(-300, 300) for _ in range(3)] for _ in range(6)]
        factors = determinantal_factors(a)
        assert invariant_factors(a) == factors, (trial, a)
        assert [x for x in check_snf(a).diagonal() if x] == factors, (trial, a)


def test_solve_integral_identity():
    assert solve_integral(identity_matrix(2), (5, -3)) == (5, -3)


def test_solve_integral_support_function_case():
    # h on cone((1,1),(0,1)) with values (0,-2) is the linear form 2x - 2y.
    x = solve_integral([[1, 1], [0, 1]], (0, -2))
    assert x == (2, -2)


def test_solve_integral_parity_obstruction():
    assert solve_integral([[2]], (1,)) is None
    assert rationally_solvable([[2]], (1,))


def test_solve_integral_inconsistent():
    assert solve_integral([[1, 0], [1, 0]], (0, 1)) is None
    assert not rationally_solvable([[1, 0], [1, 0]], (0, 1))


def test_solve_integral_random():
    rng = random.Random(11)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        x0 = [rng.randint(-4, 4) for _ in range(cols)]
        b = matvec(a, x0)
        x = solve_integral(a, b)
        assert x is not None
        assert matvec(a, x) == b
        # Arbitrary right hand sides either solve exactly or are rejected.
        b2 = [rng.randint(-8, 8) for _ in range(rows)]
        x2 = solve_integral(a, b2)
        if x2 is not None:
            assert matvec(a, x2) == b2


def test_determinant_examples():
    assert determinant(identity_matrix(4)) == 1
    assert determinant([[1, 0], [-1, 1]]) == 1
    assert determinant([[1, 1], [0, 2]]) == 2


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(3)

    def cofactor_det(a):
        n = len(a)
        if n == 0:
            return 1
        if n == 1:
            return a[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in a[1:]]
            total += (-1) ** j * a[0][j] * cofactor_det(minor)
        return total

    for _ in range(80):
        n = rng.randint(1, 4)
        a = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        assert determinant(a) == cofactor_det(a)


def test_primitive_vector():
    assert primitive_vector((2, 4)) == (1, 2)
    assert primitive_vector((0, -3)) == (0, -1)
    assert primitive_vector((1, 1)) == (1, 1)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


def test_primitive_vector_idempotent():
    rng = random.Random(1)
    for _ in range(100):
        v = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 4)))
        if all(x == 0 for x in v):
            continue
        p = primitive_vector(v)
        assert primitive_vector(p) == p


def test_kernel_basis():
    basis = kernel_basis([[1, 1, 0]])
    assert len(basis) == 2
    for v in basis:
        assert v[0] + v[1] == 0 or v == (0, 0, 1) or True
        assert sum(a * b for a, b in zip((1, 1, 0), v)) == 0
    assert kernel_basis([], cols=2) == [(1, 0), (0, 1)]
    rng = random.Random(5)
    for _ in range(60):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        basis = kernel_basis(a)
        assert len(basis) == cols - rank(a)
        for v in basis:
            assert matvec(a, v) == [0] * rows


def test_unimodular_inverse():
    u = [[1, 2], [1, 3]]
    uinv = unimodular_inverse(u)
    assert matmul(u, uinv) == identity_matrix(2)
    with pytest.raises(ValueError):
        unimodular_inverse([[2, 0], [0, 1]])


def test_adjugate_from_cross_products_equals_the_cofactors():
    # n = 1..5, with singular matrices: repeated rows, a zero row, rank-one.
    rng = random.Random(41)
    checked = Counter()
    for n in range(1, 6):
        for _ in range(60):
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            kind = rng.randrange(4)
            if kind == 1 and n > 1:
                a[-1] = list(a[0])
            elif kind == 2:
                a[rng.randrange(n)] = [0] * n
            elif kind == 3 and n > 1:
                a = [[x * k for x in a[0]] for k in range(1, n + 1)]
            adj, det = adjugate(a), determinant(a)
            assert adj == minor_adjugate(a), a
            assert matmul(a, adj) == [[det * (i == j) for j in range(n)] for i in range(n)]
            checked[n, det == 0] += 1
    assert all(checked[n, True] and checked[n, False] for n in range(1, 6)), checked
    assert adjugate([]) == [] and adjugate([[7]]) == [[1]]


def test_rank_mod_p():
    # diag(1, 6): rank 2 over Q, rank 1 over F_2 and F_3, rank 2 over F_5.
    a = [[2, 0], [0, 3]]
    assert rank_mod_p(a, 2) == 1
    assert rank_mod_p(a, 3) == 1
    assert rank_mod_p(a, 5) == 2


def test_rank_zero_pivot_row_regression():
    # The second row has a zero in the first pivot column; skipping its
    # scaling step left a later exact division inexact and the rank at 2.
    a = [[-2, -1, 0], [0, -1, -1], [1, 1, 0]]
    assert determinant(a) == -1
    assert rank(a) == 3


def test_rank_matches_snf_rank_random():
    rng = random.Random(2026)
    for _ in range(20000):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        assert rank(a) == fraction_rank(a), a


def test_cross_product_is_the_signed_minor_vector():
    assert cross_product([(1, 0, 0), (0, 1, 0)]) == (0, 0, 1)
    assert cross_product([(1, 2)]) == (2, -1)
    assert cross_product([]) == (1,)
    rng = random.Random(17)
    for _ in range(2000):
        k = rng.randint(1, 4)
        rows = [tuple(rng.randint(-3, 3) for _ in range(k + 1)) for _ in range(k)]
        u = cross_product(rows)
        assert all(sum(a * b for a, b in zip(row, u)) == 0 for row in rows)
        assert u == signed_minors(rows), rows
        assert any(u) == (rank(rows) == k)
        # Completing the rows by any vector x gives det = <x, u> up to sign.
        x = [rng.randint(-3, 3) for _ in range(k + 1)]
        assert determinant([list(r) for r in rows] + [x]) == \
            (-1) ** k * sum(a * b for a, b in zip(x, u))


def dependent_or_random_rows(rng, k):
    """k rows in Z^(k+1): random ones, or with the last a multiple of the
    first (or zero), so that they are dependent."""
    rows = [tuple(rng.randint(-9, 9) for _ in range(k + 1)) for _ in range(k)]
    if k > 1 and rng.random() < 0.3:
        m = rng.randint(-2, 2)
        rows[-1] = tuple(m * x for x in rows[0])
    return rows


def signed_minors(rows):
    """The signed maximal minors of k rows in Z^(k+1), each a
    ``determinant``: the reference for ``cross_product``, which reads them
    off closed forms up to Z^4 and off one Smith form beyond."""
    k = len(rows)
    return tuple((-1) ** i * determinant([[*r[:i], *r[i + 1:]] for r in rows])
                 for i in range(k + 1))


def test_closed_form_cross_products_equal_the_minors():
    assert cross_product([(0, 0)]) == signed_minors([(0, 0)]) == (0, 0)
    rng = random.Random(1601)
    dependent = 0
    for _ in range(5000):
        k = rng.randint(1, 2)
        rows = dependent_or_random_rows(rng, k)
        u = cross_product(rows)
        assert u == signed_minors(rows), rows
        dependent += not any(u)
    assert dependent > 500


def test_closed_form_cross_product_in_z4_equals_the_minors():
    # Three rows in Z^4: random, the last a multiple of the first, the last
    # a combination of the first two, or all on one line.
    rng = random.Random(2901)
    kinds = Counter()
    for _ in range(3000):
        rows = dependent_or_random_rows(rng, 3)
        kind = rng.randrange(4)
        if kind == 2:
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[2] = tuple(s * x + t * y for x, y in zip(rows[0], rows[1]))
        elif kind == 3:
            rows = [tuple(m * x for x in rows[0]) for m in (rng.randint(-2, 2) for _ in range(3))]
        u = cross_product(rows)
        assert u == signed_minors(rows), rows
        kinds[rank(rows)] += 1
    assert kinds[3] > 1000 and kinds[2] > 500 and kinds[1] + kinds[0] > 300, kinds


def test_square_solve_equals_the_smith_route():
    rng = random.Random(1602)
    seen = {"solved": 0, "non-integral": 0, "singular": 0}
    for _ in range(4000):
        n = rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:  # a singular system: the last row a multiple of the first
            m = rng.randint(-2, 2)
            a[-1] = [m * x for x in a[0]]
        if rng.random() < 0.5:
            b = matvec(a, [rng.randint(-5, 5) for _ in range(n)])
        else:
            b = [rng.randint(-9, 9) for _ in range(n)]
        # Cramer's rule, with det expanded along the first row, on the
        # nonsingular systems; a singular one has no Cramer solve, and the
        # Smith form's solution, when there is one, solves it.
        crosses = [cross_product(a[:i] + a[i + 1:]) for i in range(n)]
        det, x = dot(a[0], crosses[0]), solve_integral(a, b)
        assert det == determinant(a)
        if det == 0:
            assert x is None or matvec(a, x) == b, (a, b)
            seen["singular"] += 1
        else:
            assert cramer(crosses, det, b) == x, (a, b)
            seen["solved" if x is not None else "non-integral"] += 1
    assert min(seen.values()) > 300, seen
