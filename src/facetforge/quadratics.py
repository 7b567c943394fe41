"""Convex quadratic inequalities and systems, with exact classification.

A constraint is f(x) = <Ax, x> + 2<a, x> + alpha <= 0 with A rational
symmetric positive semidefinite.  The solution set of a single such
inequality is one of seven shapes, each with a known facial dimension
signature (n = ambient dimension, m = nullity of A):

    A = 0, a = 0, alpha > 0   empty set
    A = 0, a = 0, alpha <= 0  the whole space, signature {n}
    A = 0, a != 0             halfspace, signature {n-1, n}
    A != 0, a_N = 0, v* > 0   empty set
    A != 0, a_N = 0, v* = 0   affine subspace (point if m = 0), signature {m}
    A != 0, a_N = 0, v* < 0   cylinder over a ball, signature {m, n}
    A != 0, a_N != 0          cylinder over a paraboloid, signature {m-1, n}

where a_N is the component of a in null(A) and v* = alpha + <a, x0> is the
minimum of f, attained at any x0 with A x0 = -a.  classify reads null(A),
x0 and so v* off one null space, that of [A | a], which holds a vector
(x0, 1) exactly when a_N = 0.  Everything here is exact.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import (
    _ZERO,
    RVector,
    SparseRows,
    Subspace,
    dot,
    is_symmetric,
    null_space_basis,
    project_onto,
    psd_ldlt,
    rank,
    rvector,
    sparse_rows,
)
from .signatures import Signature


@dataclass(frozen=True)
class ConvexQuadratic:
    """One inequality <Ax,x> + 2<a,x> + alpha <= 0 with A symmetric PSD.

    A is given as dense rows or as its nonzero rows {i: {j: A_ij}}; either
    way the field A holds the nonzero rows, rows and columns in ascending
    order with Fraction entries and rows of zeros left out, and every kernel
    reads that dict.  Equality compares the dicts, so it ignores how the
    input was ordered or typed, and the hash reads the nonzero entries as a
    set; both cost O(nnz), not O(n^2).

    ConvexQuadratic(...) checks that A, a and alpha hold finite numbers,
    and the shape, symmetry and positive semidefiniteness of A, with a
    ValueError that names the field at fault; so does the JSON loader,
    which calls it: every matrix from outside the program comes in
    checked.  Quadratics derived from checked ones (embed, the verifier's
    restrictions, the template builders) come from _psd_by_construction,
    which skips those checks and builds the same fields.
    """

    A: SparseRows
    a: RVector
    alpha: Fraction

    def __post_init__(self):
        a = _numbers(rvector, self.a, "a holds an entry that is not a number")
        n = len(a)
        if isinstance(self.A, dict):
            rows = _rows_from_dict(self.A, n)
        else:
            A = _numbers(lambda A: tuple(map(rvector, A)), self.A,
                         "A holds an entry that is not a number")
            if len(A) != n or any(len(row) != n for row in A):
                raise ValueError("matrix shape does not match the linear term")
            rows = sparse_rows(A)
        self._fill(rows, a, _numbers(Fraction, self.alpha, "alpha is not a number"))
        if not is_symmetric(rows):
            raise ValueError("quadratic form matrix must be symmetric")
        ok, _ = psd_ldlt(rows, n)
        if not ok:
            raise ValueError("quadratic form matrix is not positive semidefinite")

    def _fill(self, rows: SparseRows, a: RVector, alpha):
        for name, value in (("A", rows), ("a", a), ("alpha", Fraction(alpha))):
            object.__setattr__(self, name, value)

    def __hash__(self):
        entries = frozenset((i, j, e) for i, row in self.A.items() for j, e in row.items())
        return hash((entries, self.a, self.alpha))

    @classmethod
    def _psd_by_construction(cls, rows: SparseRows, a, alpha) -> ConvexQuadratic:
        """The quadratic with nonzero rows `rows`, without the checks.

        rows must be the nonzero rows of a matrix that is symmetric PSD
        because of how it was derived from a checked one (a zero-padded
        copy, a principal submatrix, B^T A B): rows and the columns within
        each row in ascending order, Fraction entries, and every index below
        len(a).  The dict is kept as the field A, not copied.
        """
        q = object.__new__(cls)
        q._fill(rows, rvector(a), alpha)
        return q

    @property
    def dim(self) -> int:
        return len(self.a)


def _numbers(convert, value, fault: str):
    """convert(value), where convert makes Fractions; a ValueError that
    starts with fault when Fraction cannot read an entry (None, a string
    that is no number, NaN or an infinity) or value is not a sequence."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{fault}: {exc}") from None


def _rows_from_dict(A: dict, n: int) -> SparseRows:
    """The nonzero rows of the n x n matrix A = {i: {j: A_ij}}.

    Rows must be dicts and indices ints (not bool) in 0..n-1; each entry is
    made a Fraction before the zeros are dropped, so an entry that is not a
    number is refused rather than read as zero.
    """
    rows = {}
    for i, row in A.items():
        if not isinstance(row, dict):
            raise ValueError(f"matrix row {i!r} is not a dict {{j: A_ij}}")
        for k in (i, *row):
            if type(k) is not int:
                raise ValueError(f"matrix index {k!r} is not an int")
            if not 0 <= k < n:
                raise ValueError("matrix shape does not match the linear term")
        values = _numbers(rvector, row.values(),
                          f"matrix row {i} holds an entry that is not a number")
        if nonzero := {j: e for j, e in sorted(zip(row, values)) if e}:
            rows[i] = nonzero
    return dict(sorted(rows.items()))


def evaluate(q: ConvexQuadratic, x) -> Fraction | float:
    """f(x); exact Fraction for rational input, float otherwise."""
    if len(x) != q.dim:
        raise ValueError("point dimension does not match the constraint")
    if all(isinstance(e, (Fraction, int)) for e in x):
        total = q.alpha
    else:
        x = [float(e) for e in x]
        total = float(q.alpha)
    # f(x) = alpha + sum_i x_i (sum_j A_ij x_j + 2 a_i), over nonzero x_i.
    for i, xi in enumerate(x):
        if xi:
            row = q.A.get(i, {})
            total += xi * (sum(e * x[j] for j, e in row.items()) + 2 * q.a[i])
    return total


class QuadraticKind(enum.Enum):
    EMPTY = "empty"
    FULL_SPACE = "full_space"
    SINGLETON = "singleton"
    AFFINE_SUBSPACE = "affine_subspace"
    HALF_SPACE = "half_space"
    CYLINDER_BALL = "cylinder_ball"
    PARABOLOID_CYLINDER = "paraboloid_cylinder"


@dataclass(frozen=True)
class QuadraticClass:
    """Classification result for a single convex quadratic inequality.

    face_directions spans the directions of the (unique) proper face shape
    when one exists: the hyperplane of a halfspace, null(A) for a cylinder
    over a ball, null(A) intersected with the orthogonal complement of the
    null component of a for a cylinder over a paraboloid.  minimizer and
    min_value are set whenever a has no null component.
    """

    kind: QuadraticKind
    nullity: int
    signature: Signature | None
    proper_face_dim: int | None = None
    face_directions: Subspace | None = None
    minimizer: RVector | None = None
    min_value: Fraction | None = None
    null_component: RVector | None = None


def constant_directions(constraints, n: int) -> Subspace:
    """Directions d along which every given quadratic is constant.

    f(x + td) = f(x) + 2t<Ax + a, d> + t^2<Ad, d> with A PSD, so f is
    constant along d exactly when Ad = 0 and <a, d> = 0: the null space of
    the stacked nonzero rows of each A and each linear term a.  This is the
    face-direction rule, for one constraint's class and for an active set.
    """
    return null_space_basis(_direction_rows(constraints), n)


def constant_direction_dim(constraints, n: int) -> int:
    """constant_directions(constraints, n).dim, from the pivot count alone."""
    return n - rank(_direction_rows(constraints), n)


def _direction_rows(constraints) -> tuple:
    rows = []
    for q in constraints:
        rows.extend(q.A.values())
        rows.append(q.a)
    return tuple(rows)


def classify(q: ConvexQuadratic) -> QuadraticClass:
    n = q.dim
    if not q.A:
        if all(e == 0 for e in q.a):
            if q.alpha > 0:
                return QuadraticClass(QuadraticKind.EMPTY, n, None)
            return QuadraticClass(
                QuadraticKind.FULL_SPACE, n, Signature.of(n), min_value=q.alpha
            )
        return QuadraticClass(
            QuadraticKind.HALF_SPACE,
            n,
            Signature.of(n - 1, n),
            proper_face_dim=n - 1,
            face_directions=constant_directions((q,), n),
        )
    rows = tuple({**q.A.get(i, {}), n: e} if e else q.A[i]
                 for i, e in enumerate(q.a) if e or i in q.A)
    basis = null_space_basis(rows, n + 1).basis
    x0 = basis[-1][:n] if basis and basis[-1][n] else None
    null = Subspace._independent(n, tuple(b[:n] for b in basis if not b[n]))
    m = null.dim
    if x0 is None:
        # A is symmetric: a leaves range(A) exactly when a_N != 0.
        return QuadraticClass(
            QuadraticKind.PARABOLOID_CYLINDER,
            m,
            Signature.of(m - 1, n),
            proper_face_dim=m - 1,
            face_directions=constant_directions((q,), n),
            null_component=project_onto(q.a, null),
        )
    v_min = q.alpha + dot(q.a, x0)
    if v_min > 0:
        return QuadraticClass(QuadraticKind.EMPTY, m, None)
    if v_min == 0:
        kind = QuadraticKind.SINGLETON if m == 0 else QuadraticKind.AFFINE_SUBSPACE
        return QuadraticClass(
            kind, m, Signature.of(m), minimizer=x0, min_value=v_min
        )
    return QuadraticClass(
        QuadraticKind.CYLINDER_BALL,
        m,
        Signature.of(m, n),
        proper_face_dim=m,
        face_directions=null,
        minimizer=x0,
        min_value=v_min,
    )


def single_signature(q: ConvexQuadratic) -> Signature:
    cls = classify(q)
    if cls.signature is None:
        raise ValueError("the solution set is empty and has no signature")
    return cls.signature


def face_direction_space(q: ConvexQuadratic) -> Subspace:
    cls = classify(q)
    if cls.face_directions is None:
        raise ValueError(f"a {cls.kind.value} set has no proper face shape")
    return cls.face_directions


@dataclass(frozen=True)
class QuadraticSystem:
    """Finite conjunction of convex quadratic inequalities in R^dim."""

    dim: int
    constraints: tuple[ConvexQuadratic, ...]
    interior_witness: RVector | None = None

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.dim < 0:
            raise ValueError(f"negative system dimension {self.dim}")
        if any(c.dim != self.dim for c in self.constraints):
            raise ValueError("constraint dimension differs from the system dimension")
        if self.interior_witness is not None:
            w = rvector(self.interior_witness)
            object.__setattr__(self, "interior_witness", w)
            if len(w) != self.dim:
                raise ValueError("witness dimension differs from the system dimension")
            for c in self.constraints:
                if evaluate(c, w) >= 0:
                    raise ValueError("interior witness is not strictly feasible")


def embed(q: ConvexQuadratic, target_dim: int, offset: int) -> ConvexQuadratic:
    """Place q on coordinates [offset, offset + q.dim) of R^target_dim."""
    n, d = target_dim, q.dim
    if offset < 0 or offset + d > n:
        raise ValueError("embedding window does not fit the target dimension")
    rows = {
        offset + i: {offset + j: e for j, e in row.items()}
        for i, row in q.A.items()
    }
    a = (_ZERO,) * offset + q.a + (_ZERO,) * (n - offset - d)
    # A zero-padded copy of a PSD matrix is PSD.
    return ConvexQuadratic._psd_by_construction(rows, a, q.alpha)


def direct_sum(s: QuadraticSystem, t: QuadraticSystem) -> QuadraticSystem:
    """Independent juxtaposition: s on the first block, t on the second."""
    n = s.dim + t.dim
    constraints = tuple(embed(c, n, 0) for c in s.constraints) + tuple(
        embed(c, n, s.dim) for c in t.constraints
    )
    witness = None
    if s.interior_witness is not None and t.interior_witness is not None:
        witness = s.interior_witness + t.interior_witness
    return QuadraticSystem(dim=n, constraints=constraints, interior_witness=witness)
