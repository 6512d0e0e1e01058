"""Reference code that only the tests use: plain paths kept out of the
package because no command reaches them."""

from toricgf.genfun import LaurentPolynomial, times_binomials
from toricgf.intlinalg import Matrix, Vector, dot, transpose
from toricgf.polyhedral import Cone, cone_from_rays, dual_cone


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def binomial_product(dim: int, factors) -> LaurentPolynomial:
    """Product of (1 - x^g) over the given factor vectors."""
    return times_binomials(LaurentPolynomial.constant(dim, 1), factors)


def normal_cone(point: Vector, points: list[Vector], n: int) -> Cone:
    """The cone of functionals minimised over ``points`` at ``point``: the
    dual of the cone the other points span from it."""
    ineqs = [tuple(p[i] - point[i] for i in range(n))
             for p in points if p != point]
    return dual_cone(cone_from_rays(n, ineqs))
