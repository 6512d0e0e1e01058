"""Exact integer linear algebra.

Everything here operates on matrices given as lists of rows of Python ints
and stays in arbitrary precision integer arithmetic throughout.  These
routines back all of the cone geometry and homology computations, which are
meaningless if rounded.

There is one elimination, the Smith normal form ``_smith``, which also
returns the sign of its transforms.  A rank is its number of invariant
factors, a determinant its diagonal's product times that sign, and a cross
product beyond the closed forms in Z^2, Z^3 and Z^4 comes off one form
with its transforms.  A pivot that does not divide an entry of its row or
column is replaced by their gcd in one extended-gcd 2x2 step, which at
least halves it and whose coefficients are bounded by the two entries.
The Euclid-with-swaps step it replaces could grow entries without bound
(Kannan and Bachem, "Polynomial algorithms for computing the Smith and
Hermite normal forms of an integer matrix", 1979, on such growth).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from operator import mul, neg

Vector = tuple[int, ...]
Matrix = list[list[int]]


class InternalCheckFailed(Exception):
    """An internal consistency check failed: an exact result contradicts an
    invariant it must satisfy, so the computation behind it is wrong.  The
    checks raise this rather than assert, so they hold under ``python -O``."""


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def dot(u, v) -> int:
    return sum(map(mul, u, v))


def dots(u, rows) -> list[int]:
    """<u, r> for every row r, written out in Z^3."""
    if len(u) == 3:
        a, b, c = u
        return [a * x + b * y + c * z for x, y, z in rows]
    return [sum(map(mul, u, r)) for r in rows]


def matvec(a: Matrix, v) -> list[int]:
    return [dot(row, v) for row in a]


def determinant(a: Matrix) -> int:
    """Exact determinant: the Smith diagonal's product, times the sign of the
    transforms that reached it."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant requires a square matrix")
    diag, _, _, _, sign = _smith(a, track=False)
    return sign * prod(diag)


def rank(rows) -> int:
    """Rank over the rationals: the number of invariant factors."""
    return len(invariant_factors(rows))


def cross_product(rows) -> Vector:
    """The vector of signed maximal minors of n-1 rows in Z^n.

    It is orthogonal to every row, and nonzero exactly when the rows are
    linearly independent.
    """
    if len(rows) == 1 and len(rows[0]) == 2:
        return (rows[0][1], -rows[0][0])
    if len(rows) == 2 and len(rows[0]) == 3:
        (a, b, c), (d, e, f) = rows
        return (b * f - c * e, c * d - a * f, a * e - b * d)
    if len(rows) == 3 and len(rows[0]) == 4:
        # Each 3x3 minor expanded along the third row, over the 2x2 minors
        # p_jk of the first two.
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
        p01, p02, p03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
        p12, p13, p23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
        return (c1 * p23 - c2 * p13 + c3 * p12, c2 * p03 - c0 * p23 - c3 * p02,
                c0 * p13 - c1 * p03 + c3 * p01, c1 * p02 - c0 * p12 - c2 * p01)
    if not rows:
        return (1,)
    # Beyond Z^4, all k + 1 minors off one Smith form U @ rows @ V == D:
    # the rows completed by x have determinant sign * prod(D) * <x, w>, w
    # the last column of V, and that is (-1)^k <x, cross product>.
    diag, _, _, v, sign = _smith(rows, track=True)
    c = prod(diag) * (-sign if len(rows) % 2 else sign)
    return tuple(c * row[-1] for row in v)


def adjugate(a: Matrix) -> Matrix:
    """Adjugate matrix, so that a @ adjugate(a) == det(a) * I: column i is
    (-1)^i times the cross product of the rows of a but the i-th."""
    n = len(a)
    if n <= 1:
        return [[1]] if n else []
    columns = [cross_product(a[:i] + a[i + 1:]) for i in range(n)]
    return [[-x if i % 2 else x for i, x in enumerate(row)] for row in zip(*columns)]


def primitive_vector(v) -> Vector:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = gcd(*v)
    if g == 1:
        return tuple(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


@dataclass
class SNFResult:
    """Smith normal form decomposition U @ A @ V == D.

    D is diagonal with nonnegative entries d_1 | d_2 | ..., and U, V are
    unimodular.
    """

    D: Matrix
    U: Matrix
    V: Matrix

    def diagonal(self) -> list[int]:
        k = min(len(self.D), len(self.D[0]) if self.D else 0)
        return [self.D[i][i] for i in range(k)]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b) > 0, for b != 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def _pair(m: Matrix, t: int, i: int, s: int, c: int, e: int, f: int):
    """Rows t and i of m become s r_t + c r_i and e r_i - f r_t."""
    a, b = m[t], m[i]
    m[t] = [s * x + c * y for x, y in zip(a, b)]
    m[i] = [e * y - f * x for x, y in zip(a, b)]


def _smith(a: Matrix, track: bool):
    """(diag, D, U, V, sign) with U @ a @ V == D, U and V None unless
    tracked, and sign = det(U) det(V): each swap and row negation flips it,
    and every other step, a subtraction or an extended-gcd step
    (s c / -x/g p/g) with s p + c x = g, has determinant 1.  The diagonal is
    then made a divisibility chain by the same step, diag(p, x) ~ diag(g, px/g).
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    k = min(rows, cols)
    u = identity_matrix(rows) if track else None
    # V's columns as rows, so that a column step on m is a row step on vt.
    vt = identity_matrix(cols) if track else None
    sign = 1
    for t in range(k):
        # The first unit in row order, else the smallest nonzero entry, to
        # limit entry growth; rows t.. are zero left of column t.
        for i in range(t, rows):
            row = m[i]
            if 1 in row or -1 in row:
                j = t
                while row[j] != 1 and row[j] != -1:
                    j += 1
                break
        else:
            pivot = min(((abs(x), i, j) for i in range(t, rows) for j, x in enumerate(m[i]) if x),
                        default=None)
            if pivot is None:
                break
            _, i, j = pivot
        if i != t:
            m[t], m[i] = m[i], m[t]
            if track:
                u[t], u[i] = u[i], u[t]
            sign = -sign
        if j != t:
            for row in m:
                row[t], row[j] = row[j], row[t]
            if track:
                vt[t], vt[j] = vt[j], vt[t]
            sign = -sign

        below = True
        while below:
            # Clear the pivot column, then the pivot row; a gcd step in the
            # row can reopen the column below the pivot, so repeat until not.
            p, below = m[t][t], False
            for i in range(t + 1, rows):
                if x := m[i][t]:
                    if x % p:
                        g, s, c = _xgcd(p, x)
                        e, f = p // g, x // g
                        _pair(m, t, i, s, c, e, f)
                        if track:
                            _pair(u, t, i, s, c, e, f)
                        p = g
                    else:
                        q = x // p
                        m[i] = [y - q * z for y, z in zip(m[i], m[t])]
                        if track:
                            u[i] = [y - q * z for y, z in zip(u[i], u[t])]
            top = m[t]
            for j in range(t + 1, cols):
                if x := top[j]:
                    if x % p:
                        g, s, c = _xgcd(p, x)
                        e, f = p // g, x // g
                        for row in m[t:]:
                            y, z = row[t], row[j]
                            row[t], row[j] = s * y + c * z, e * z - f * y
                        if track:
                            _pair(vt, t, j, s, c, e, f)
                        p, below = g, True
                    else:
                        q = x // p
                        if below:
                            for row in m[t + 1:]:
                                row[j] -= q * row[t]
                        top[j] = 0
                        if track:
                            vt[j] = [y - q * z for y, z in zip(vt[j], vt[t])]

    diag = [m[i][i] for i in range(k)]
    for i in range(k):
        # The nonzero entries come first, so a zero ends the chain.
        if not (p := diag[i]):
            break
        for j in range(i + 1, k):
            if (x := diag[j]) % p:
                g, s, c = _xgcd(p, x)
                e, f = p // g, x // g
                p = diag[i] = g
                diag[j] = e * x
                if track:
                    # (s c / -f e) diag(p, x) (1 -cf / 1 se) == diag(g, ex)
                    _pair(u, i, j, s, c, e, f)
                    _pair(vt, i, j, 1, 1, s * e, c * f)
        if p < 0:
            diag[i] = -p
            if track:
                u[i] = [-x for x in u[i]]
            sign = -sign
    for i, d in enumerate(diag):
        m[i][i] = d
    return diag, m, u, transpose(vt) if track else None, sign


def smith_normal_form(a: Matrix) -> SNFResult:
    """Smith normal form with unimodular transforms, U @ A @ V == D."""
    _, d, u, v, _ = _smith(a, track=True)
    return SNFResult(D=d, U=u, V=v)


def invariant_factors(a: Matrix) -> list[int]:
    """Nonzero diagonal of the Smith normal form (no transforms tracked)."""
    diag = _smith(a, track=False)[0]
    return [x for x in diag if x != 0]


def rank_mod_p(a: Matrix, p: int) -> int:
    """Rank of the matrix over the field with p elements."""
    return sum(1 for x in invariant_factors(a) if x % p != 0)


def solve_integral(a: Matrix, b) -> Vector | None:
    """One integer solution x of a @ x == b, or None if none exists, by the
    Smith form: x = V y, where D y = U b."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if len(b) != rows:
        raise ValueError("right hand side length does not match row count")
    if rows == 0:
        return tuple([0] * cols)
    res = smith_normal_form(a)
    diag, y = res.diagonal(), [0] * cols
    for i, c in enumerate(matvec(res.U, b)):
        d = diag[i] if i < cols else 0
        if d and c % d == 0:
            y[i] = c // d
        elif c:
            return None
    return tuple(matvec(res.V, y))


def cramer(crosses, det: int, b) -> Vector | None:
    """The integer x with <x, a_i> = b_i for the n rows a_i of a matrix of
    determinant det != 0, or None when x is not integral: x = sum (-1)^i b_i
    C_i / det, C_i = ``crosses[i]`` the cross product of the rows but a_i."""
    signed = [-bi if i % 2 else bi for i, bi in enumerate(b)]
    x = dots(signed, zip(*crosses))
    if det == 1 or det == -1:
        return tuple(x) if det == 1 else tuple(map(neg, x))
    return None if any(xj % det for xj in x) else tuple(xj // det for xj in x)


def rationally_solvable(a: Matrix, b) -> bool:
    """Whether a @ x == b has any solution over the rationals."""
    if len(b) != len(a):
        raise ValueError("right hand side length does not match row count")
    return rank(a) == rank([list(row) + [x] for row, x in zip(a, b)])


def kernel_basis(a: Matrix, cols: int | None = None) -> list[Vector]:
    """Basis of the integer kernel lattice {x : a @ x == 0}."""
    if not a:
        if cols is None:
            raise ValueError("cols is required for an empty matrix")
        return [tuple(row) for row in identity_matrix(cols)]
    res = smith_normal_form(a)
    ncols = len(a[0])
    r = sum(1 for x in res.diagonal() if x != 0)
    vt = transpose(res.V)
    return [tuple(vt[j]) for j in range(r, ncols)]


def unimodular_inverse(u: Matrix) -> Matrix:
    """Exact inverse of a matrix with determinant +-1."""
    d = determinant(u)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    adj = adjugate(u)
    if d == -1:
        adj = [[-x for x in row] for row in adj]
    return adj
