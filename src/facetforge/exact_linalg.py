"""Exact rational linear algebra on tuples of fractions.Fraction.

Vectors are tuples of Fraction, dense matrices are tuples of row tuples.  A
matrix can also be given by its nonzero entries as rows {i: {j: m_ij}}
(SparseRows, built by sparse_rows); rows with no nonzero entry are left
out.  The symmetry test and the LDL^T elimination take either form and
touch nonzeros only.  Every operation here is exact; floating point never
enters.  One integer row reduction (_rref) answers rank and null-space
bases; it keeps every row primitive, so coefficient growth stays in check,
and takes rows dense or as dicts {j: m_j} of nonzeros.  Solves are read off
the null space: x solves m x = b when (x, 1) is a null vector of [m | -b].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

RVector = tuple[Fraction, ...]
RMatrix = tuple[RVector, ...]
SparseRows = dict[int, dict[int, Fraction]]
_ZERO = Fraction(0)
_ONE = Fraction(1)


def rvector(entries) -> RVector:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def rmatrix(rows) -> RMatrix:
    out = tuple(
        tuple(e if type(e) is Fraction else Fraction(e) for e in row) for row in rows
    )
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("matrix rows have unequal lengths")
    return out


def zero_vector(n: int) -> RVector:
    return (Fraction(0),) * n


def unit_vector(i: int, n: int) -> RVector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def identity_matrix(n: int) -> RMatrix:
    return tuple(unit_vector(i, n) for i in range(n))


def dot(u: RVector, v: RVector) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def mat_vec(m: RMatrix | SparseRows, v: RVector) -> RVector:
    """m v, for m dense or the nonzero rows of a len(v) x len(v) matrix."""
    if isinstance(m, dict):
        return tuple(sum((e * v[j] for j, e in m[i].items() if v[j]), _ZERO)
                     if i in m else _ZERO for i in range(len(v)))
    return tuple(dot(row, v) for row in m)


def vec_add(u: RVector, v: RVector) -> RVector:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v: RVector) -> RVector:
    c = Fraction(c)
    return tuple(c * a for a in v)


def sparse_rows(m: RMatrix) -> SparseRows:
    """Nonzero entries of a dense matrix as rows {i: {j: m_ij}}."""
    out = {}
    for i, row in enumerate(m):
        nonzero = {j: e for j, e in enumerate(row) if e}
        if nonzero:
            out[i] = nonzero
    return out


def is_symmetric(m: RMatrix | SparseRows) -> bool:
    rows = m if isinstance(m, dict) else sparse_rows(m)
    return all(
        rows.get(j, {}).get(i) == e for i, row in rows.items() for j, e in row.items()
    )


def _integer_rows(m, ncols: int) -> list[list[int]]:
    # Row scaling by the denominator lcm preserves rank, null space and RREF.
    out = []
    for row in m:
        pairs = row.items() if isinstance(row, dict) else enumerate(row)
        nonzero = [(j, e) for j, e in pairs if e]
        scale = lcm(*(e.denominator for _, e in nonzero))
        ints = [0] * ncols
        for j, e in nonzero:
            ints[j] = e.numerator * (scale // e.denominator)
        out.append(ints)
    return out


def _rref(m, ncols: int):
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    Gauss-Jordan over the integers: rows are scaled to integers, and every
    updated row is divided by the gcd of its entries, so it stays primitive
    and coefficients stay bounded.  Each row of m is a dense tuple of
    length ncols or a dict {j: m_j} of its nonzero entries; entries are
    Fraction or int.  Fractions are built for the returned pivot rows only.
    """
    rows = _integer_rows(m, ncols)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        piv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                new = [piv * x - f * y for x, y in zip(row, prow)]
                g = gcd(*new) or 1
                rows[i] = [x // g for x in new]
        pivots.append(c)
        r += 1
    return [
        [Fraction(e, row[c]) if e else _ZERO for e in row] for row, c in zip(rows, pivots)
    ], pivots


def rank(m, ncols: int | None = None) -> int:
    """Rank of m: the pivot count of its reduced row echelon form.  Rows
    are given as for _rref; ncols defaults to the first row's length and is
    required when that row is a dict."""
    if ncols is None:
        ncols = len(m[0]) if m else 0
    return len(_rref(m, ncols)[1])


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^n given by a tuple of independent basis vectors."""

    ambient_dim: int
    basis: tuple[RVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(rvector(b) for b in self.basis))
        if any(len(b) != self.ambient_dim for b in self.basis):
            raise ValueError("basis vector length differs from ambient dimension")
        if self.basis and rank(self.basis) != len(self.basis):
            raise ValueError("basis vectors are linearly dependent")

    @classmethod
    def _independent(cls, ambient_dim: int, basis: tuple[RVector, ...]) -> Subspace:
        """The subspace spanned by basis, a tuple of Fraction tuples known to
        be independent, without the rank check."""
        s = object.__new__(cls)
        object.__setattr__(s, "ambient_dim", ambient_dim)
        object.__setattr__(s, "basis", basis)
        return s

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: RVector) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("vector dimension differs from ambient dimension")
        if all(e == 0 for e in v):
            return True
        if not self.basis:
            return False
        return rank(self.basis + (rvector(v),)) == len(self.basis)


def full_space(n: int) -> Subspace:
    return Subspace(n, identity_matrix(n))


def null_space_basis(m, ambient_dim: int | None = None) -> Subspace:
    """Basis of {x : m x = 0}, rows given as for _rref, one vector per free
    column in ascending order; solves are read off it (solve_linear).
    ambient_dim is required when m has no rows or its first row is a dict."""
    if ambient_dim is None:
        if not m or isinstance(m[0], dict):
            raise ValueError("ambient_dim required for an empty or sparse matrix")
        ambient_dim = len(m[0])
    rows, pivots = _rref(m, ambient_dim)
    free = [c for c in range(ambient_dim) if c not in pivots]
    basis = []
    for c in free:
        v = [_ZERO] * ambient_dim
        v[c] = _ONE
        for i, pc in enumerate(pivots):
            if e := rows[i][c]:
                v[pc] = -e
        basis.append(tuple(v))
    # One unit entry per free column, zero in every other free column: the
    # basis is independent by construction.
    return Subspace._independent(ambient_dim, tuple(basis))


def orthogonal_complement(s: Subspace) -> Subspace:
    return null_space_basis(s.basis, s.ambient_dim)


def intersect_subspaces(subspaces, ambient_dim: int | None = None) -> Subspace:
    """Intersection of subspaces; the empty list yields the full space."""
    subspaces = list(subspaces)
    if not subspaces:
        if ambient_dim is None:
            raise ValueError("ambient_dim required to intersect an empty list")
        return full_space(ambient_dim)
    n = subspaces[0].ambient_dim
    if any(s.ambient_dim != n for s in subspaces):
        raise ValueError("subspaces live in different ambient dimensions")
    constraint_rows: list[RVector] = []
    for s in subspaces:
        constraint_rows.extend(orthogonal_complement(s).basis)
    return null_space_basis(tuple(constraint_rows), n)


def solve_linear(m: RMatrix, b: RVector) -> RVector | None:
    """One particular solution of m x = b, 0 at the free columns, or None when
    inconsistent: read off the last null vector of [m | -b], (x, 1) if any is."""
    if len(m) != len(b):
        raise ValueError("dimension mismatch in linear solve")
    ncols = len(m[0]) if m else 0
    basis = null_space_basis(tuple(row + (-bi,) for row, bi in zip(m, b)), ncols + 1).basis
    return basis[-1][:ncols] if basis and basis[-1][ncols] else None


def project_onto(v: RVector, s: Subspace) -> RVector:
    """Orthogonal projection of v onto s via exact normal equations."""
    if len(v) != s.ambient_dim:
        raise ValueError("vector dimension differs from ambient dimension")
    if s.dim == 0:
        return zero_vector(s.ambient_dim)
    gram = tuple(tuple(dot(bi, bj) for bj in s.basis) for bi in s.basis)
    rhs = tuple(dot(bi, v) for bi in s.basis)
    coeffs = solve_linear(gram, rhs)
    assert coeffs is not None  # Gram matrix of an independent basis is invertible
    out = zero_vector(s.ambient_dim)
    for c, b in zip(coeffs, s.basis):
        out = vec_add(out, vec_scale(c, b))
    return out


def psd_ldlt(
    m: RMatrix | SparseRows, n: int | None = None
) -> tuple[bool, tuple[Fraction, ...]]:
    """Exact positive-semidefiniteness test by pivoted LDL^T elimination.

    Walks the diagonal; a positive pivot eliminates its row and column, a
    zero pivot is accepted only when its entire remaining row is zero, and a
    negative pivot (or a zero pivot with a nonzero row) terminates with a
    non-PSD verdict.  Returns (is_psd, pivots), where the last pivot of a
    failed run is the offending diagonal entry.

    m is a dense square matrix, or the SparseRows of an n x n matrix.  Only
    nonzero entries are stored and eliminated; fill-in is added as it
    appears, so the pivots equal those of dense elimination.
    """
    if not isinstance(m, dict):
        n = len(m)
        if any(len(row) != n for row in m):
            raise ValueError("matrix is not square")
        m = sparse_rows(rmatrix(m))
    elif n is None:
        raise ValueError("n required for a matrix given by its nonzero rows")
    if not is_symmetric(m):
        raise ValueError("matrix is not symmetric")
    s = {i: dict(row) for i, row in m.items()}
    pivots: list[Fraction] = []
    for k in range(n):
        row = s.get(k, {})
        d = row.get(k, Fraction(0))
        if d < 0:
            return False, tuple(pivots + [d])
        # By symmetry the trailing row k is also the trailing column k.
        below = [(i, e) for i, e in row.items() if i > k and e]
        if d == 0:
            if below:
                return False, tuple(pivots + [d])
            pivots.append(d)
            continue
        pivots.append(d)
        for i, e in below:
            f = e / d
            target = s.setdefault(i, {})
            for j, v in below:
                target[j] = target.get(j, 0) - f * v
    return True, tuple(pivots)
