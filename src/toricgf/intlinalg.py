"""Exact integer linear algebra.

Everything here operates on matrices given as lists of rows of Python ints
and stays in arbitrary precision integer arithmetic throughout.  These
routines back all of the cone geometry and homology computations, which are
meaningless if rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
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


def _bareiss(m: Matrix) -> tuple[int, int]:
    """Fraction-free (Bareiss) row elimination of m in place, with
    first-nonzero pivoting.

    Returns the rank and the last pivot, signed by the row swaps.  Each
    pivot is a minor of the row-permuted matrix, so for a square matrix of
    full rank the signed last pivot is the determinant.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r, sign, prev = 0, 1, 1
    for c in range(ncols):
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for row in m[r + 1:]:
            x = row[c]
            for j in range(c + 1, ncols):
                row[j] = (row[j] * p - x * top[j]) // prev
            row[c] = 0
        prev = p
        r += 1
        if r == nrows:
            break
    return r, sign * prev


def determinant(a: Matrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant requires a square matrix")
    r, pivot = _bareiss([list(row) for row in a])
    return pivot if r == n else 0


def rank(rows) -> int:
    """Rank over the rationals, by fraction-free row elimination."""
    return _bareiss([list(r) for r in rows])[0]


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
    k = len(rows)
    minors = (_bareiss([[*row[:i], *row[i + 1:]] for row in rows]) for i in range(k + 1))
    return tuple((-1) ** i * pivot if r == k else 0 for i, (r, pivot) in enumerate(minors))


def greedy_basis(vectors) -> list[Vector]:
    """Maximal linearly independent subset, scanning in the given order."""
    if rank(vectors) == len(vectors):
        return list(vectors)
    basis: list[Vector] = []
    r = 0
    for v in vectors:
        if rank([list(b) for b in basis] + [list(v)]) > r:
            basis.append(v)
            r += 1
    return basis


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


def _smith(a: Matrix, track: bool):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [row[:] for row in a]
    u = identity_matrix(rows) if track else None
    v = identity_matrix(cols) if track else None

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        if track:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        if track:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row[dst] -= q * row[src]
        mdst, msrc = m[dst], m[src]
        for j in range(cols):
            mdst[j] -= q * msrc[j]
        if track:
            udst, usrc = u[dst], u[src]
            for j in range(rows):
                udst[j] -= q * usrc[j]

    def add_col(dst, src, q):
        for row in m:
            row[dst] -= q * row[src]
        if track:
            for row in v:
                row[dst] -= q * row[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        if track:
            u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # Smallest nonzero pivot in the trailing submatrix limits entry growth;
        # the first one in row order, so the scan may stop at a unit.
        pivot, least = None, 0
        for i in range(t, rows):
            row = m[i]
            for j in range(t, cols):
                x = abs(row[j])
                if x and (not least or x < least):
                    pivot, least = (i, j), x
                    if x == 1:
                        break
            if least == 1:
                break
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        while True:
            # Clear the pivot column, then the pivot row; repeat until both
            # are clear (a smaller remainder can reopen the other one).
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    add_row(i, t, q)
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    add_col(j, t, q)
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break

        # Enforce the divisibility chain: fold any bad entry into the pivot.
        p = m[t][t]
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, -1)
            continue

        if m[t][t] < 0:
            negate_row(t)
        t += 1

    diag = [m[i][i] for i in range(min(rows, cols))]
    return diag, m, u, v


def smith_normal_form(a: Matrix) -> SNFResult:
    """Smith normal form with unimodular transforms, U @ A @ V == D."""
    _, d, u, v = _smith(a, track=True)
    return SNFResult(D=d, U=u, V=v)


def invariant_factors(a: Matrix) -> list[int]:
    """Nonzero diagonal of the Smith normal form (no transforms tracked)."""
    diag, _, _, _ = _smith(a, track=False)
    return [x for x in diag if x != 0]


def rank_mod_p(a: Matrix, p: int) -> int:
    """Rank of the matrix over the field with p elements."""
    return sum(1 for x in invariant_factors(a) if x % p != 0)


def solve_integral(a: Matrix, b) -> Vector | None:
    """One integer solution x of a @ x == b, or None if none exists; a
    square a with det != 0 takes ``cramer`` and other systems the Smith
    form."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if len(b) != rows:
        raise ValueError("right hand side length does not match row count")
    if rows == 0:
        return tuple([0] * cols)
    if rows == cols:
        crosses = [cross_product(a[:i] + a[i + 1:]) for i in range(rows)]
        det = dot(a[0], crosses[0])
        if det:
            return cramer(crosses, det, b)
    return _smith_solve(a, b)


def cramer(crosses, det: int, b) -> Vector | None:
    """The integer x with <x, a_i> = b_i for the n rows a_i of a matrix of
    determinant det != 0, or None when x is not integral: x = sum (-1)^i b_i
    C_i / det, C_i = ``crosses[i]`` the cross product of the rows but a_i."""
    signed = [-bi if i % 2 else bi for i, bi in enumerate(b)]
    x = dots(signed, zip(*crosses))
    if det == 1 or det == -1:
        return tuple(x) if det == 1 else tuple(map(neg, x))
    return None if any(xj % det for xj in x) else tuple(xj // det for xj in x)


def _smith_solve(a: Matrix, b) -> Vector | None:
    """The Smith form route of ``solve_integral``, for any nonempty system."""
    rows, cols = len(a), len(a[0])
    res = smith_normal_form(a)
    c = matvec(res.U, list(b))
    y = [0] * cols
    for i in range(rows):
        d = res.D[i][i] if i < cols else 0
        if d == 0:
            if c[i] != 0:
                return None
        elif c[i] % d != 0:
            return None
        else:
            y[i] = c[i] // d
    return tuple(matvec(res.V, y))


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
