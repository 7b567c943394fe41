"""Quadratics built from their nonzero rows, against the dense builders.

ConvexQuadratic accepts A as nonzero rows {i: {j: A_ij}}; embed,
_restrict_constraint and the ball and cylinder builders now state only
those rows, and the exact template matcher compares a constraint's rows
with constructor.template_rows.  The dense embed and _restrict_constraint
and the diagonal-pattern matchers they replaced are kept here verbatim as
references, and run on the same seeded inputs: balls and cylinders at
several n and offsets, and near misses of both shapes.  null_space_basis
must give the same basis on {j: e} rows as on the dense rows.
"""

import random
from fractions import Fraction

import pytest

from dense_form import dense
from facetforge.constructor import (
    build_ball,
    build_cylinder,
    default_params,
    template_rows,
)
from facetforge.exact_linalg import null_space_basis, zero_vector
from facetforge.quadratics import ConvexQuadratic, embed
from facetforge.verifier import (
    _is_unit_ball,
    _parse_template_cylinder,
    _restrict_constraint,
)

F = Fraction


def reference_parse_template_cylinder(q: ConvexQuadratic):
    """(index, c, r_squared) when q matches the centered cylinder shape."""
    n = q.dim
    if any(j != i for i, row in q.A.items() for j in row):
        return None
    diag = [dense(q)[i][i] for i in range(n)]
    try:
        idx = diag.index(Fraction(1))
    except ValueError:
        return None
    if any(e != 0 for e in diag[:idx]) or any(e != 1 for e in diag[idx:]):
        return None
    if not 1 <= idx <= n - 1:
        return None
    if any(e != 0 for i, e in enumerate(q.a) if i != idx):
        return None
    c = q.a[idx]
    if c <= 0:
        return None
    r_sq = c * c - q.alpha
    if r_sq <= 0:
        return None
    return idx, c, r_sq


def reference_is_unit_ball(q: ConvexQuadratic) -> bool:
    return (
        q.alpha == -1
        and not any(q.a)
        and len(q.A) == q.dim
        and all(row == {i: 1} for i, row in q.A.items())
    )


def reference_embed(q: ConvexQuadratic, target_dim: int, offset: int) -> ConvexQuadratic:
    """Place q on coordinates [offset, offset + q.dim) of R^target_dim."""
    n, d = target_dim, q.dim
    if offset < 0 or offset + d > n:
        raise ValueError("embedding window does not fit the target dimension")
    A, rows = dense(q), []
    for i in range(n):
        if offset <= i < offset + d:
            src = A[i - offset]
            rows.append(
                (Fraction(0),) * offset + tuple(src) + (Fraction(0),) * (n - offset - d)
            )
        else:
            rows.append(zero_vector(n))
    a = (Fraction(0),) * offset + tuple(q.a) + (Fraction(0),) * (n - offset - d)
    return ConvexQuadratic(A=tuple(rows), a=a, alpha=q.alpha)


def reference_restrict_constraint(q: ConvexQuadratic, idx: tuple[int, ...]) -> ConvexQuadratic:
    A = dense(q)
    rows = tuple(tuple(A[i][j] for j in idx) for i in idx)
    return ConvexQuadratic(A=rows, a=tuple(q.a[i] for i in idx), alpha=q.alpha)


# ---------------------------------------------------------------------------
# Seeded inputs, built from dense rows


def _diagonal(n, diag, a=None, alpha=-1):
    """Dense quadratic with the given diagonal and linear term {i: a_i}."""
    rows = [[F(0)] * n for _ in range(n)]
    for i, e in enumerate(diag):
        rows[i][i] = F(e)
    vec = [F(0)] * n
    for i, e in (a or {}).items():
        vec[i] = F(e)
    return ConvexQuadratic(A=tuple(map(tuple, rows)), a=tuple(vec), alpha=F(alpha))


def _ball(n, pad=0, alpha=-1, a=None):
    """A ball on the last n of n + pad coordinates."""
    return _diagonal(n + pad, [0] * pad + [1] * n, a, alpha)


def _cylinder(n, index, c, r_sq, pad=0):
    """The template cylinder of face dimension index in R^n, after pad
    leading free coordinates."""
    k = pad + index
    return _diagonal(n + pad, [0] * k + [1] * (n - index), {k: c}, c * c - r_sq)


def _random_positive(rng):
    return F(rng.randint(1, 40), rng.randint(1, 12))


def template_cases(seed=1011):
    """Balls, cylinders and near misses of both at several n and offsets."""
    rng = random.Random(seed)
    cases = []
    for n in range(1, 9):
        for pad in range(3):
            cases.append(_ball(n, pad))
            cases.append(_ball(n, pad, alpha=F(-1, 2)))
            cases.append(_ball(n, pad, a={pad + rng.randrange(n): 1}))
        diag = [1] * n
        diag[rng.randrange(n)] = 2
        cases.append(_diagonal(n, diag))
    for n in range(2, 9):
        for index in range(1, n):
            c, r_sq = _random_positive(rng), _random_positive(rng) + 1
            for pad in range(3):
                cases.append(_cylinder(n, index, c, r_sq, pad))
            # A stray off-diagonal entry inside the identity block.
            if n - index >= 2:
                i, j = rng.sample(range(index, n), 2)
                cyl = _cylinder(n, index, c, r_sq)
                rows = [list(row) for row in dense(cyl)]
                rows[i][j] = rows[j][i] = F(1, 3)
                cases.append(ConvexQuadratic(A=tuple(map(tuple, rows)), a=cyl.a,
                                             alpha=cyl.alpha))
            # A diagonal 2 and a gap in the identity block.
            for value in (2, 0):
                diag = [0] * index + [1] * (n - index)
                diag[rng.randrange(index, n)] = value
                cases.append(_diagonal(n, diag, {index: c}, c * c - r_sq))
            # An extra nonzero in a, c <= 0, r^2 <= 0.
            identity = [0] * index + [1] * (n - index)
            extra = rng.choice([i for i in range(n) if i != index])
            cases.append(_diagonal(n, identity, {index: c, extra: 1}, c * c - r_sq))
            cases.append(_cylinder(n, index, -c, r_sq))
            cases.append(_cylinder(n, index, 0, r_sq))
            cases.append(_cylinder(n, index, c, 0))
            cases.append(_cylinder(n, index, c, -1))
        # Index 0 (the full identity) and index n (no identity at all).
        cases.append(_diagonal(n, [1] * n, {0: 1}, F(-3)))
        cases.append(_diagonal(n, [0] * n, {n - 1: 1}, F(-3)))
    return cases


def random_quadratic(rng, n, support=None):
    """A PSD quadratic M^T M on the coordinates support (all by default)."""
    support = list(range(n)) if support is None else support
    k = len(support)
    m = [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(k)]
         for _ in range(rng.randint(0, k))]
    rows = [[F(0)] * n for _ in range(n)]
    for p, i in enumerate(support):
        for q, j in enumerate(support):
            rows[i][j] = sum((r[p] * r[q] for r in m), F(0))
    a = [F(0)] * n
    for i in support:
        a[i] = F(rng.randint(-3, 3), rng.randint(1, 4))
    return ConvexQuadratic(A=tuple(map(tuple, rows)), a=tuple(a),
                           alpha=F(rng.randint(-5, 5), rng.randint(1, 3)))


def _same(q: ConvexQuadratic, ref: ConvexQuadratic):
    assert q == ref
    assert hash(q) == hash(ref)
    assert repr(q) == repr(ref)
    assert q.A == ref.A
    assert [(i, list(row.items())) for i, row in q.A.items()] == [
        (i, list(row.items())) for i, row in ref.A.items()
    ]


# ---------------------------------------------------------------------------
# The template shape


def test_template_rows_are_the_trailing_identity():
    for n in range(1, 10):
        for index in range(n + 1):
            dense = [[int(i == j and i >= index) for j in range(n)] for i in range(n)]
            built = ConvexQuadratic(A=template_rows(index, n), a=(0,) * n, alpha=-1)
            _same(built, ConvexQuadratic(A=dense, a=(0,) * n, alpha=-1))


def test_builders_match_dense_templates():
    params = default_params()
    for n in range(1, 10):
        _same(build_ball(n), _ball(n))
        for index in range(1, n):
            _same(build_cylinder(index, n, params),
                  _cylinder(n, index, params.c, params.r * params.r))


def test_matchers_agree_with_the_diagonal_pattern_checks():
    cases = template_cases()
    parsed = [_parse_template_cylinder(q) for q in cases]
    balls = [_is_unit_ball(q) for q in cases]
    assert parsed == [reference_parse_template_cylinder(q) for q in cases]
    assert balls == [reference_is_unit_ball(q) for q in cases]
    # Every unpadded ball (n = 1..8) matches, cylinders match many times
    # over, and most cases miss both.
    assert sum(balls) == 8
    assert sum(p is not None for p in parsed) >= 80
    assert sum(p is None and not b for p, b in zip(parsed, balls)) >= 200


def test_matchers_on_random_quadratics():
    rng = random.Random(1012)
    for _ in range(300):
        q = random_quadratic(rng, rng.randint(1, 6))
        assert _parse_template_cylinder(q) == reference_parse_template_cylinder(q)
        assert _is_unit_ball(q) == reference_is_unit_ball(q)


# ---------------------------------------------------------------------------
# Builders from nonzero rows


def test_embed_matches_the_dense_embedding():
    rng = random.Random(1013)
    cases = template_cases()[::7] + [random_quadratic(rng, rng.randint(1, 5))
                                     for _ in range(60)]
    for q in cases:
        for _ in range(3):
            n = q.dim + rng.randint(0, 4)
            offset = rng.randint(0, n - q.dim)
            _same(embed(q, n, offset), reference_embed(q, n, offset))
        with pytest.raises(ValueError):
            embed(q, q.dim + 1, 2)
        with pytest.raises(ValueError):
            embed(q, q.dim, -1)


def test_restrict_constraint_matches_the_dense_restriction():
    rng = random.Random(1014)
    for _ in range(200):
        n = rng.randint(1, 7)
        support = sorted(rng.sample(range(n), rng.randint(1, n)))
        q = random_quadratic(rng, n, support)
        # The block of a constraint covers its support; any principal
        # submatrix is PSD, so the restriction is defined for any idx too.
        block = sorted(set(support) | set(rng.sample(range(n), rng.randint(0, n))))
        anywhere = sorted(rng.sample(range(n), rng.randint(0, n)))
        for idx in (tuple(block), tuple(anywhere)):
            _same(_restrict_constraint(q, idx), reference_restrict_constraint(q, idx))


def test_quadratic_from_nonzero_rows_equals_the_dense_quadratic():
    rng = random.Random(1015)
    for _ in range(200):
        expected = random_quadratic(rng, rng.randint(1, 6))
        n, A = expected.dim, dense(expected)
        # Unsorted keys, explicit zeros, empty rows and int entries are all
        # normalized away.
        rows = {}
        for i in rng.sample(range(n), n):
            row = {j: A[i][j] for j in rng.sample(range(n), n) if rng.random() < 0.7
                   or A[i][j]}
            rows[i] = {j: int(e) if e.denominator == 1 else e for j, e in row.items()}
        q = ConvexQuadratic(A=rows, a=expected.a, alpha=expected.alpha)
        _same(q, expected)


def test_nonzero_rows_outside_the_matrix_are_rejected():
    for rows in ({2: {2: 1}}, {0: {2: 1}, 2: {0: 1}}, {-1: {-1: 1}}):
        with pytest.raises(ValueError):
            ConvexQuadratic(A=rows, a=(0, 0), alpha=-1)


# ---------------------------------------------------------------------------
# Null spaces of {j: e} rows


def test_null_space_of_sparse_rows_equals_dense():
    rng = random.Random(1016)
    for _ in range(300):
        n = rng.randint(1, 7)
        dense = [tuple(F(rng.choice((0, 0, 0, 1, -2, 3)), rng.randint(1, 3))
                       for _ in range(n)) for _ in range(rng.randint(0, 6))]
        sparse = [{j: e for j, e in enumerate(row) if e} for row in dense]
        mixed = [row if k % 2 else sparse[k] for k, row in enumerate(dense)]
        expected = null_space_basis(tuple(dense), n)
        assert null_space_basis(tuple(sparse), n) == expected
        assert null_space_basis(tuple(mixed), n) == expected
        # Empty {j: e} rows are zero rows.
        assert null_space_basis(tuple(sparse) + ({},), n) == expected
    with pytest.raises(ValueError):
        null_space_basis(({0: F(1)},))
