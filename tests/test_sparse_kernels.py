"""Property tests for the kernels that work on nonzero entries only.

psd_ldlt and is_symmetric are compared with the dense elimination they
replaced, kept here verbatim as the reference; evaluate is compared with
the dense formula <Ax, x> + 2<a, x> + alpha, and mat_vec of nonzero rows
with mat_vec of the dense rows.  A matrix given as dense rows or as nonzero
rows in any order, with int or Fraction entries, must give quadratics that
compare, hash and print equal.  Hypothesis runs derandomized, so every run
draws the same examples.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dense_form import dense
from facetforge.exact_linalg import (
    dot,
    is_symmetric,
    mat_vec,
    psd_ldlt,
    rmatrix,
    sparse_rows,
)
from facetforge.quadratics import ConvexQuadratic, evaluate

F = Fraction
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def dense_psd_ldlt(m):
    """The dense pivoted LDL^T loop that psd_ldlt replaced."""
    n = len(m)
    s = [[Fraction(e) for e in row] for row in m]
    pivots: list[Fraction] = []
    for k in range(n):
        d = s[k][k]
        if d < 0:
            return False, tuple(pivots + [d])
        if d == 0:
            if any(s[k][j] != 0 for j in range(k + 1, n)):
                return False, tuple(pivots + [d])
            pivots.append(d)
            continue
        pivots.append(d)
        for i in range(k + 1, n):
            if s[i][k] == 0:
                continue
            f = s[i][k] / d
            for j in range(k + 1, n):
                s[i][j] -= f * s[k][j]
    return True, tuple(pivots)


def _gram(b, n):
    return [[sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]


def _permute(m, perm):
    return [[m[perm[i]][perm[j]] for j in range(len(m))] for i in range(len(m))]


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices up to 12 x 12 with sparse patterns."""
    n = draw(st.integers(1, 12))
    small = st.integers(-3, 3)
    kind = draw(st.sampled_from(
        ["zero_rows", "diagonal", "block_gram", "indefinite", "zero_pivot"]))
    if kind == "diagonal":
        m = [[0] * n for _ in range(n)]
        for i, d in enumerate(draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))):
            m[i][i] = d
    elif kind == "indefinite":
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if draw(st.booleans()):
                    m[i][j] = m[j][i] = draw(small)
    else:
        # Block-diagonal Gram matrices B^T B: PSD, dense inside each block,
        # so elimination fills in.
        m = [[0] * n for _ in range(n)]
        start = 0
        while start < n:
            size = draw(st.integers(1, n - start))
            rows = draw(st.integers(0, size + 1))
            b = [draw(st.lists(small, min_size=size, max_size=size)) for _ in range(rows)]
            g = _gram(b, size)
            for i in range(size):
                for j in range(size):
                    m[start + i][start + j] = g[i][j]
            start += size
        if kind == "zero_rows":
            for k in draw(st.sets(st.integers(0, n - 1))):
                for j in range(n):
                    m[k][j] = m[j][k] = 0
        elif kind == "zero_pivot" and n > 1:
            k = draw(st.integers(0, n - 2))
            j = draw(st.integers(k + 1, n - 1))
            m[k][k] = 0
            m[k][j] = m[j][k] = draw(st.sampled_from([-2, -1, 1, 2]))
    return _permute(m, draw(st.permutations(range(n))))


@SETTINGS
@given(symmetric_matrices())
def test_psd_ldlt_matches_dense_reference(m):
    expected = dense_psd_ldlt(m)
    assert psd_ldlt(rmatrix(m)) == expected
    assert psd_ldlt(m) == expected
    assert psd_ldlt(sparse_rows(rmatrix(m)), len(m)) == expected
    assert all(isinstance(p, Fraction) for p in psd_ldlt(m)[1])


@SETTINGS
@given(symmetric_matrices(), st.data())
def test_is_symmetric_matches_dense_reference(m, data):
    n = len(m)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    m[i][j] += data.draw(st.integers(-1, 1))
    expected = all(m[r][c] == m[c][r] for r in range(n) for c in range(r + 1, n))
    assert is_symmetric(rmatrix(m)) == expected
    assert is_symmetric(sparse_rows(rmatrix(m))) == expected


@st.composite
def quadratics_and_points(draw):
    """A PSD quadratic with a sparse Gram matrix, and a point with zeros."""
    n = draw(st.integers(1, 10))
    small = st.integers(-3, 3)
    b = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(draw(st.integers(0, 3)))]
    for row in b:
        for k in draw(st.sets(st.integers(0, n - 1))):
            row[k] = 0
    ratio = st.builds(F, st.integers(-20, 20), st.integers(1, 7))
    a = draw(st.lists(ratio, min_size=n, max_size=n))
    q = ConvexQuadratic(A=_gram(b, n), a=a, alpha=draw(ratio))
    x = [draw(ratio) if draw(st.booleans()) else F(0) for _ in range(n)]
    return q, tuple(x)


def _dense_value(q, x):
    return dot(x, mat_vec(dense(q), x)) + 2 * dot(q.a, x) + q.alpha


@SETTINGS
@given(quadratics_and_points())
def test_mat_vec_of_nonzero_rows_matches_dense(case):
    q, x = case
    product = mat_vec(q.A, x)
    assert product == mat_vec(dense(q), x)
    assert all(type(e) is Fraction for e in product)


@SETTINGS
@given(quadratics_and_points())
def test_evaluate_matches_dense_formula(case):
    q, x = case
    value = evaluate(q, x)
    assert isinstance(value, Fraction)
    assert value == _dense_value(q, x)
    ints = tuple(int(e) for e in x)
    assert evaluate(q, ints) == _dense_value(q, tuple(F(e) for e in ints))

    xf = tuple(float(e) for e in x)
    value = evaluate(q, xf)
    assert isinstance(value, float)
    # The float point is an exact rational; scale the tolerance by the size
    # of the terms, since they can cancel.
    xr = tuple(F(e) for e in xf)
    n, A = q.dim, dense(q)
    scale = abs(q.alpha) + sum(
        abs(A[i][j] * xr[i] * xr[j]) for i in range(n) for j in range(n)
    ) + 2 * sum(abs(q.a[i] * xr[i]) for i in range(n))
    assert abs(F(value) - _dense_value(q, xr)) <= F(1e-12) * max(scale, 1)


@st.composite
def one_matrix_in_two_forms(draw):
    """A PSD matrix c B^T B as dense rows, and as nonzero rows {i: {j: e}}.

    The dict form lists its rows and each row's columns in a shuffled order,
    holds explicit zeros and empty rows, and writes integral entries as int
    or Fraction at random; the dense form mixes int and Fraction too.
    """
    n = draw(st.integers(1, 6))
    small = st.integers(-3, 3)
    b = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(draw(st.integers(0, 3)))]
    scale = F(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    m = [[scale * e for e in row] for row in _gram(b, n)]

    def either(e):
        return int(e) if e.denominator == 1 and draw(st.booleans()) else e

    dense_rows = [[either(e) for e in row] for row in m]
    rows = {}
    for i in draw(st.permutations(range(n))):
        cols = [j for j in draw(st.permutations(range(n))) if m[i][j] or draw(st.booleans())]
        if cols or draw(st.booleans()):
            rows[i] = {j: either(m[i][j]) for j in cols}
    ratio = st.builds(F, st.integers(-20, 20), st.integers(1, 7))
    a = draw(st.lists(ratio, min_size=n, max_size=n))
    return dense_rows, rows, a, draw(ratio)


@SETTINGS
@given(one_matrix_in_two_forms())
def test_nonzero_index_is_invisible(case):
    ints = ConvexQuadratic(A=((2, 0, 1), (0, 0, 0), (1, 0, 1)), a=(0, 1, 0), alpha=-3)
    fracs = ConvexQuadratic(
        A=tuple(tuple(F(e) for e in row) for row in ((2, 0, 1), (0, 0, 0), (1, 0, 1))),
        a=(F(0), F(1), F(0)),
        alpha=F(-3),
    )
    assert ints == fracs
    assert hash(ints) == hash(fracs)
    assert repr(ints) == repr(fracs)
    assert [f.name for f in dataclasses.fields(ConvexQuadratic)] == ["A", "a", "alpha"]
    assert ints.A == {0: {0: 2, 2: 1}, 2: {0: 1, 2: 1}}
    assert dataclasses.replace(ints, alpha=-4).A == ints.A

    dense_rows, rows, a, alpha = case
    n = len(a)
    from_dense = ConvexQuadratic(A=dense_rows, a=a, alpha=alpha)
    from_rows = ConvexQuadratic(A=rows, a=tuple(int(e) if e.denominator == 1 else e for e in a),
                                alpha=alpha)
    same = [from_dense, from_rows, dataclasses.replace(from_rows),
            ConvexQuadratic(A=from_dense.A, a=from_dense.a, alpha=from_dense.alpha)]
    for q in same:
        assert q == from_dense
        assert hash(q) == hash(from_dense)
        assert repr(q) == repr(from_dense)
        assert list(q.A) == sorted(q.A)
        assert all(list(row) == sorted(row) and all(type(e) is Fraction and e for e in row.values())
                   for row in q.A.values())
    assert from_dense.A == sparse_rows(rmatrix(dense_rows))
    moved = dataclasses.replace(from_rows, alpha=alpha - 1)
    assert moved != from_rows and moved.A == from_rows.A and moved.alpha == alpha - 1

    # Malformed rows are still rejected: an index outside the matrix, an
    # asymmetric matrix and one that is not PSD; so are a row that is not a
    # dict, indices that are not ints and an entry that is not a number.
    row = from_dense.A.get(0, {})
    bad = [({**from_dense.A, n: {n: 1}}, "shape"),
           ({**from_dense.A, 0: {**row, 0: F(-1)}}, "positive semidefinite"),
           ({0: [1]}, "row 0 is not a dict"),
           ({"0": {"0": 1}}, "index '0' is not an int"),
           ({0.0: {0: 1}}, "index 0.0 is not an int"),
           ({0: {0: None}}, "row 0 holds an entry that is not a number")]
    if n > 1:
        bad.append(({**from_dense.A, 0: {**row, 1: row.get(1, 0) + 1}}, "symmetric"))
    for rows, message in bad:
        with pytest.raises(ValueError, match=message):
            ConvexQuadratic(A=rows, a=a, alpha=alpha)


INF, NAN = float("inf"), float("nan")
NON_NUMBERS = [
    ("A", [[None]], "A holds an entry that is not a number"),
    ("A", [[INF]], "A holds an entry that is not a number"),
    ("A", [[NAN]], "A holds an entry that is not a number"),
    ("A", None, "A holds an entry that is not a number"),
    ("A", {0: {0: INF}}, "matrix row 0 holds an entry that is not a number"),
    ("a", (None,), "a holds an entry that is not a number"),
    ("a", (-INF,), "a holds an entry that is not a number"),
    ("a", None, "a holds an entry that is not a number"),
    ("alpha", None, "alpha is not a number"),
    ("alpha", INF, "alpha is not a number"),
    ("alpha", "x", "alpha is not a number"),
]


@pytest.mark.parametrize("field, value, message", NON_NUMBERS,
                         ids=[f"{field}={value!r}" for field, value, _ in NON_NUMBERS])
def test_non_number_input_is_a_value_error(field, value, message):
    # Every path, dense A, dict A, a and alpha, refuses what Fraction cannot
    # read, infinities and NaN included, with a ValueError naming the field.
    fields = {"A": [[1]], "a": (0,), "alpha": -1, field: value}
    with pytest.raises(ValueError, match=message):
        ConvexQuadratic(**fields)
