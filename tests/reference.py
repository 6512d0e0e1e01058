"""Reference code that only the tests use: plain paths kept out of the
package because no command reaches them."""

from toricgf.intlinalg import Matrix, dot, transpose


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)
