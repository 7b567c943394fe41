"""The dense matrix of a quadratic, for tests that read A entry by entry.

ConvexQuadratic.A holds only the nonzero rows {i: {j: A_ij}}; dense(q)
expands them to the n x n tuple of row tuples with Fraction(0) elsewhere,
the form that indexing A[i][j] and the dense linear algebra
(null_space_basis, solve_linear, mat_vec on row tuples) expect.
"""

from fractions import Fraction


def dense(q) -> tuple[tuple[Fraction, ...], ...]:
    n = q.dim
    return tuple(tuple(q.A.get(i, {}).get(j, Fraction(0)) for j in range(n))
                 for i in range(n))
