"""Property tests for the one integer row reduction in exact_linalg.

_rref, rank, null_space_basis and solve_linear are compared with the
kernels they replaced, a fraction-free Bareiss rank and a Fraction
Gauss-Jordan reduction, kept here verbatim as references.  _rref's dict
pivot rows are expanded to dense rows for those comparisons, and _rref is
also compared with the dense-row integer RREF it replaced
(reference_dense_rref) on dense, dict and mixed rows.  classify is
compared with a reference that decides the paraboloid case by projecting a
onto null(A).  Hypothesis runs derandomized, so every run draws the same
examples.
"""

import random
from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

import reference_dense_rref
from dense_form import dense
from facetforge.exact_linalg import (
    Subspace,
    _rref,
    dot,
    null_space_basis,
    project_onto,
    rank,
    solve_linear,
    vec_scale,
)
from facetforge.quadratics import (
    ConvexQuadratic,
    QuadraticClass,
    QuadraticKind,
    _direction_rows,
    classify,
)
from facetforge.signatures import Signature

F = Fraction
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def reference_integer_rows(m):
    # Row scaling by the denominator lcm preserves rank and null space.
    out = []
    for row in m:
        scale = lcm(*(e.denominator for e in row)) if row else 1
        out.append([int(e * scale) for e in row])
    return out


def reference_rank(m):
    """Rank by fraction-free Bareiss elimination over the integers."""
    rows = reference_integer_rows(m)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            fi = rows[i][c]
            for j in range(c, ncols):
                rows[i][j] = (piv * rows[i][j] - fi * rows[r][j]) // prev
        prev = piv
        r += 1
    return r


def reference_rref(m, ncols):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [[Fraction(e) for e in row] for row in m]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c]
        rows[r] = [e / inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def reference_null_space(m, ncols):
    rows, pivots = reference_rref(m, ncols)
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][c]
        basis.append(tuple(v))
    return tuple(basis)


def reference_solve(m, b):
    ncols = len(m[0]) if m else 0
    aug = tuple(tuple(row) + (bi,) for row, bi in zip(m, b))
    rows, pivots = reference_rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = rows[i][ncols]
    return tuple(x)


def _entry(draw, denominators):
    value = F(draw(st.integers(-9, 9)), draw(denominators))
    # Integral entries sometimes stay plain ints, as callers may pass them.
    return int(value) if value.denominator == 1 and draw(st.booleans()) else value


@st.composite
def rational_matrices(draw):
    """(m, ncols): 0-7 rows by 0-8 columns, sparse, low-rank or Hilbert."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 8))
    denominators = st.integers(1, 1000) | st.integers(1, 4)
    kind = draw(st.sampled_from(["sparse", "product", "hilbert"]))
    m = [[0] * ncols for _ in range(nrows)]
    if kind == "sparse":
        for i in range(nrows):
            for j in range(ncols):
                if draw(st.booleans()):
                    m[i][j] = _entry(draw, denominators)
    elif kind == "product":
        # B^T C with a thin inner dimension: rank-deficient with dense rows.
        k = draw(st.integers(1, 3))
        b = [[_entry(draw, denominators) for _ in range(nrows)] for _ in range(k)]
        c = [[_entry(draw, denominators) for _ in range(ncols)] for _ in range(k)]
        m = [[sum(F(b[t][i]) * c[t][j] for t in range(k)) for j in range(ncols)]
             for i in range(nrows)]
    else:
        size = min(nrows, ncols)
        r0, c0 = draw(st.integers(0, nrows - size)), draw(st.integers(0, ncols - size))
        for i in range(size):
            for j in range(size):
                m[r0 + i][c0 + j] = F(1, i + j + 1)
    for i in draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2)):
        if i < nrows:
            m[i] = [0] * ncols
    for j in draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2)):
        for row in m:
            if j < ncols:
                row[j] = 0
    return tuple(tuple(row) for row in m), ncols


def expand(rows, ncols):
    """_rref's pivot rows {j: Fraction} as dense Fraction lists."""
    return [[row.get(j, F(0)) for j in range(ncols)] for row in rows]


def _check_against_references(m, ncols, b):
    rows, pivots = _rref(m, ncols)
    assert (expand(rows, ncols), pivots) == reference_rref(m, ncols)
    assert all(type(e) is Fraction and e for row in rows for e in row.values())
    assert rank(m) == reference_rank(m) == len(pivots)
    space = null_space_basis(m, ncols)
    assert space.ambient_dim == ncols
    assert space.basis == reference_null_space(m, ncols)
    assert solve_linear(m, b) == reference_solve(m, b)


@SETTINGS
@given(rational_matrices(), st.data())
def test_kernel_matches_references(case, data):
    m, ncols = case
    if data.draw(st.booleans()):
        # A consistent right-hand side m x.
        x = [F(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 5))) for _ in range(ncols)]
        b = tuple(sum((F(e) * xi for e, xi in zip(row, x)), F(0)) for row in m)
    else:
        b = tuple(F(data.draw(st.integers(-3, 3))) for _ in m)
    _check_against_references(m, ncols, b)


def assert_matches_dense_rref(m, ncols):
    rows, pivots = _rref(m, ncols)
    assert all(type(e) is Fraction and e for row in rows for e in row.values())
    assert (expand(rows, ncols), pivots) == reference_dense_rref._rref(m, ncols)


@SETTINGS
@given(rational_matrices(), st.data())
def test_rref_matches_the_dense_row_kernel(case, data):
    # Each row goes in dense, as a dict of its nonzeros, or drawn per row.
    m, ncols = case
    form = data.draw(st.sampled_from(["dense", "dict", "mixed"]))
    rows = []
    for row in m:
        as_dict = form == "dict" or (form == "mixed" and data.draw(st.booleans()))
        rows.append({j: e for j, e in enumerate(row) if e} if as_dict else row)
    assert_matches_dense_rref(tuple(rows), ncols)


@SETTINGS
@given(rational_matrices())
def test_null_space_basis_equals_the_checked_subspace(case):
    # null_space_basis skips Subspace's rank check; the public constructor
    # must accept its basis and give an equal subspace.
    m, ncols = case
    space = null_space_basis(m, ncols)
    checked = Subspace(ncols, space.basis)
    assert space == checked
    assert hash(space) == hash(checked)
    assert repr(space) == repr(checked)


def test_kernel_matches_references_on_hilbert_and_dense_blocks():
    rng = random.Random(1214)
    hilbert = tuple(tuple(F(1, i + j + 1) for j in range(12)) for i in range(12))
    dense = tuple(
        tuple(F(rng.randint(-9, 9), rng.randint(1, 1000)) for _ in range(14))
        for _ in range(14)
    )
    for m in (hilbert, dense):
        n = len(m)
        b = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        _check_against_references(m, n, b)
        # Appending a combination of two rows keeps the rank.
        extra = tuple(2 * x - y for x, y in zip(m[0], m[1]))
        _check_against_references(m + (extra,), n, b + (F(0),))


def reference_classify(q):
    """classify with the paraboloid case decided by projecting a onto null(A)."""
    n = q.dim
    if not q.A:
        if all(e == 0 for e in q.a):
            if q.alpha > 0:
                return QuadraticClass(QuadraticKind.EMPTY, n, None)
            return QuadraticClass(
                QuadraticKind.FULL_SPACE, n, Signature.of(n), min_value=q.alpha
            )
        dirs = null_space_basis((q.a,))
        return QuadraticClass(
            QuadraticKind.HALF_SPACE,
            n,
            Signature.of(n - 1, n),
            proper_face_dim=n - 1,
            face_directions=dirs,
        )
    A = dense(q)
    null = null_space_basis(A)
    m = null.dim
    a_null = project_onto(q.a, null)
    if any(e != 0 for e in a_null):
        dirs = null_space_basis(A + (q.a,))
        return QuadraticClass(
            QuadraticKind.PARABOLOID_CYLINDER,
            m,
            Signature.of(m - 1, n),
            proper_face_dim=m - 1,
            face_directions=dirs,
            null_component=a_null,
        )
    x0 = solve_linear(A, vec_scale(-1, q.a))
    assert x0 is not None  # a has no null component, so a lies in range(A)
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


# Target kind -> (rank of A: "zero", "full" or "partial", a in range(A), sign of v*).
TARGETS = {
    "empty_constant": ("zero", True, 1),
    "full_space": ("zero", True, 0),
    "half_space": ("zero", False, None),
    "singleton": ("full", True, 0),
    "affine_subspace": ("partial", True, 0),
    "cylinder_ball": ("any", True, -1),
    "empty": ("any", True, 1),
    "paraboloid_cylinder": ("partial", False, None),
}


@st.composite
def psd_quadratics(draw):
    """(quadratic, expected kind): A = P^T D P for a unit upper triangular
    rational P and D = diag(d_1..d_r, 0..0), and a = P^T u, which lies in
    range(A) exactly when u vanishes past r."""
    target = draw(st.sampled_from(sorted(TARGETS)))
    shape, in_range, sign = TARGETS[target]
    n = draw(st.integers(1 if shape != "partial" else 2, 6))
    low, high = {"zero": (0, 0), "full": (n, n), "partial": (1, n - 1), "any": (1, n)}[shape]
    r = draw(st.integers(low, high))
    ratio = st.builds(F, st.integers(-4, 4), st.integers(1, 6))
    p = [[F(1) if i == j else (draw(ratio) if j > i else F(0)) for j in range(n)]
         for i in range(n)]
    d = [F(draw(st.integers(1, 5)), draw(st.integers(1, 5))) for _ in range(r)]
    u = [draw(ratio) for _ in range(r)] + [F(0)] * (n - r)
    if not in_range:
        k = draw(st.integers(r, n - 1))
        u[k] = F(draw(st.sampled_from([-3, -1, 1, 2])), draw(st.integers(1, 4)))
    A = [[sum(p[t][i] * d[t] * p[t][j] for t in range(r)) for j in range(n)] for i in range(n)]
    a = [sum(p[t][i] * u[t] for t in range(n)) for i in range(n)]
    # v* = alpha - sum_t u_t^2 / d_t when a lies in range(A).
    v_star = F(sign or 0) * F(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    alpha = v_star + sum((u[t] * u[t] / d[t] for t in range(r)), F(0))
    if sign is None:
        alpha = draw(ratio)
    expected = QuadraticKind.EMPTY if target.startswith("empty") else QuadraticKind(target)
    return ConvexQuadratic(A=A, a=a, alpha=alpha), expected


@SETTINGS
@given(psd_quadratics())
def test_classify_matches_projection_reference(case):
    q, expected = case
    got = classify(q)
    assert got.kind is expected
    assert got == reference_classify(q)


@SETTINGS
@given(st.lists(psd_quadratics(), min_size=1, max_size=3))
def test_rref_matches_the_dense_row_kernel_on_direction_rows(cases):
    # An active set's stacked rows: each A's nonzero rows as dicts and each
    # linear term a as a dense tuple, zero-padded to a common dimension.
    n = max(q.dim for q, _ in cases)
    constraints = [
        ConvexQuadratic(A=q.A, a=q.a + (F(0),) * (n - q.dim), alpha=q.alpha)
        for q, _ in cases
    ]
    assert_matches_dense_rref(_direction_rows(constraints), n)
