"""Single-quadratic classification and system composition tests."""

import random
from fractions import Fraction

import pytest

from dense_form import dense
from facetforge import exact_linalg
from facetforge.exact_linalg import (
    dot,
    mat_vec,
    null_space_basis,
    solve_linear,
    vec_add,
    vec_scale,
)
from facetforge.quadratics import (
    ConvexQuadratic,
    QuadraticKind,
    QuadraticSystem,
    classify,
    direct_sum,
    embed,
    evaluate,
    face_direction_space,
    single_signature,
)

F = Fraction
K = QuadraticKind


def ball(n: int, radius_sq=1) -> ConvexQuadratic:
    eye = tuple(
        tuple(F(1) if i == j else F(0) for j in range(n)) for i in range(n)
    )
    return ConvexQuadratic(A=eye, a=(F(0),) * n, alpha=-F(radius_sq))


def test_constructor_validates():
    with pytest.raises(ValueError):
        ConvexQuadratic(A=((1, 2), (2, 1)), a=(0, 0), alpha=0)  # indefinite
    with pytest.raises(ValueError):
        ConvexQuadratic(A=((1, 1),), a=(0, 0), alpha=0)  # not square
    with pytest.raises(ValueError):
        ConvexQuadratic(A=((1, 2), (3, 1)), a=(0, 0), alpha=0)  # asymmetric
    q = ConvexQuadratic(A=((1, 0), (0, 0)), a=(0, "1/2"), alpha="-3/4")
    assert q.a == (F(0), F(1, 2))
    assert q.dim == 2


def test_evaluate_is_exact_on_rationals():
    q = ball(2)
    assert evaluate(q, (F(1, 2), F(1, 2))) == -F(1, 2)
    assert isinstance(evaluate(q, (F(1, 3), F(0))), Fraction)
    # float input degrades to float output
    assert isinstance(evaluate(q, (0.5, 0.5)), float)


def test_classification_seven_canonical_kinds():
    cases = [
        (ball(2, radius_sq=-1), K.EMPTY, None),  # x^2+y^2+1 <= 0
        (
            ConvexQuadratic(A=((0,),), a=(0,), alpha=0),
            K.FULL_SPACE,
            (1,),
        ),
        (ball(2, radius_sq=0), K.SINGLETON, (0,)),
        (
            # x^2 <= 0 in the plane: the y axis
            ConvexQuadratic(A=((1, 0), (0, 0)), a=(0, 0), alpha=0),
            K.AFFINE_SUBSPACE,
            (1,),
        ),
        (
            ConvexQuadratic(A=((0, 0), (0, 0)), a=(1, 0), alpha=0),
            K.HALF_SPACE,
            (1, 2),
        ),
        (ball(3), K.CYLINDER_BALL, (0, 3)),
        (
            ConvexQuadratic(A=((1, 0), (0, 0)), a=(0, 1), alpha=0),
            K.PARABOLOID_CYLINDER,
            (0, 2),
        ),
    ]
    for q, kind, sig in cases:
        cls = classify(q)
        assert cls.kind is kind, (q, cls.kind)
        if sig is None:
            assert cls.signature is None
            with pytest.raises(ValueError):
                single_signature(q)
        else:
            assert cls.signature.elements == sig
            assert single_signature(q).elements == sig


# A rank-1, non-diagonal A in R^3: <Ax, x> = (x_0 + x_1)^2.
RANK_ONE = ((1, 1, 0), (1, 1, 0), (0, 0, 0))
ZERO = ((0, 0), (0, 0))
# (A, a, alpha, kind, _rref calls of one classify or None when not pinned).
ONE_REDUCTION_CASES = [
    (ZERO, (0, 0), -1, K.FULL_SPACE, 0),
    (ZERO, (0, 0), 1, K.EMPTY, 0),
    (ZERO, (0, 1), 0, K.HALF_SPACE, None),
    (((2, 1), (1, 1)), (-1, 0), 1, K.SINGLETON, 1),
    (RANK_ONE, (-1, -1, 0), 1, K.AFFINE_SUBSPACE, 1),
    (RANK_ONE, (-1, -1, 0), 0, K.CYLINDER_BALL, 1),
    (RANK_ONE, (-1, -1, 0), 2, K.EMPTY, 1),
    (RANK_ONE, (-1, -1, 1), 0, K.PARABOLOID_CYLINDER, None),
]


@pytest.mark.parametrize(
    "A, a, alpha, kind, rref_calls", ONE_REDUCTION_CASES,
    ids=[f"{c[3].value}-{'zero' if c[0] == ZERO else 'nonzero'}" for c in ONE_REDUCTION_CASES],
)
def test_classify_is_one_reduction_over_nonzero_rows(monkeypatch, A, a, alpha, kind,
                                                     rref_calls):
    q = ConvexQuadratic(A=A, a=a, alpha=alpha)
    expected = classify(q)
    assert expected.kind is kind
    calls = []
    rref = exact_linalg._rref

    def counted(m, ncols):
        calls.append(ncols)
        return rref(m, ncols)

    monkeypatch.setattr(exact_linalg, "_rref", counted)
    assert classify(q) == expected
    if rref_calls is not None:
        assert len(calls) == rref_calls


def test_cylinder_ball_class_data():
    # ellipse (x-1)^2 + 2y^2 <= 4, recentered into expanded form
    q = ConvexQuadratic(A=((1, 0), (0, 2)), a=(-1, 0), alpha=-3)
    cls = classify(q)
    assert cls.kind is K.CYLINDER_BALL
    assert cls.nullity == 0
    assert cls.minimizer == (F(1), F(0))
    assert cls.min_value == -4
    assert evaluate(q, cls.minimizer) == cls.min_value
    assert cls.signature.elements == (0, 2)
    assert cls.face_directions.dim == 0


def test_degenerate_cylinder_keeps_null_directions():
    # x^2 <= 1 in R^3: slab with faces of dimension 2 and 3
    q = ConvexQuadratic(
        A=((1, 0, 0), (0, 0, 0), (0, 0, 0)), a=(0, 0, 0), alpha=-1
    )
    cls = classify(q)
    assert cls.kind is K.CYLINDER_BALL
    assert cls.nullity == 2
    assert cls.signature.elements == (2, 3)
    assert cls.face_directions.dim == 2
    assert face_direction_space(q).dim == 2


def test_paraboloid_value_drops_linearly_along_null_component():
    q = ConvexQuadratic(A=((1, 0), (0, 0)), a=(0, 1), alpha=0)
    cls = classify(q)
    a_null = cls.null_component
    assert a_null == (F(0), F(1))
    x = (F(3), F(-2))
    norm_sq = dot(a_null, a_null)
    for t in (F(1), F(5, 2)):
        moved = vec_add(x, vec_scale(-t, a_null))
        assert evaluate(q, moved) == evaluate(q, x) - 2 * t * norm_sq
    assert cls.signature.elements == (0, 2)


def test_affine_subspace_vs_paraboloid_split():
    # The split hinges on whether a has a component outside range(A).
    rng = random.Random(600)
    seen = {K.AFFINE_SUBSPACE: 0, K.PARABOLOID_CYLINDER: 0}
    for _ in range(120):
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
        A = tuple(
            tuple(sum(row[i] * row[j] for row in b) for j in range(n))
            for i in range(n)
        )
        w = tuple(F(rng.randint(-2, 2)) for _ in range(n))
        a_range = tuple(mat_vec(A, w))
        if rng.random() < 0.5:
            x0 = solve_linear(A, tuple(-e for e in a_range))
            assert x0 is not None
            q = ConvexQuadratic(A=A, a=a_range, alpha=-dot(a_range, x0))
            cls = classify(q)
            expected = K.FULL_SPACE if all(e == 0 for row in A for e in row) else K.AFFINE_SUBSPACE
            assert cls.kind is expected
            assert cls.signature.elements == (cls.nullity,)
            if cls.kind is K.AFFINE_SUBSPACE:
                seen[cls.kind] += 1
        else:
            null = null_space_basis(A)
            assert null.dim >= 1
            a = vec_add(a_range, null.basis[0])
            q = ConvexQuadratic(A=A, a=a, alpha=rng.randint(-3, 3))
            cls = classify(q)
            assert cls.kind is K.PARABOLOID_CYLINDER
            assert cls.signature.elements == (cls.nullity - 1, q.dim)
            seen[cls.kind] += 1
    assert min(seen.values()) >= 15


def test_face_direction_space_rejects_kinds_without_proper_faces():
    with pytest.raises(ValueError):
        face_direction_space(ConvexQuadratic(A=((0,),), a=(0,), alpha=0))


def test_system_validates_witness_strictly():
    q = ball(2)
    QuadraticSystem(dim=2, constraints=(q,), interior_witness=(F(0), F(0)))
    with pytest.raises(ValueError):
        QuadraticSystem(dim=2, constraints=(q,), interior_witness=(F(1), F(0)))
    with pytest.raises(ValueError):
        QuadraticSystem(dim=2, constraints=(ball(3),))  # dimension mismatch


def test_embed_places_block():
    q = ball(2)
    e = embed(q, target_dim=4, offset=1)
    assert e.dim == 4
    A = dense(e)
    assert A[1][1] == 1 and A[2][2] == 1
    assert A[0][0] == 0 and A[3][3] == 0
    assert evaluate(e, (F(9), F(0), F(0), F(9))) == evaluate(q, (F(0), F(0)))


def test_direct_sum_concatenates():
    s = QuadraticSystem(dim=1, constraints=(ball(1),), interior_witness=(F(0),))
    t = QuadraticSystem(dim=2, constraints=(ball(2),), interior_witness=(F(0), F(0)))
    st = direct_sum(s, t)
    assert st.dim == 3
    assert len(st.constraints) == 2
    assert st.interior_witness == (F(0), F(0), F(0))
    # witness drops if either side lacks one
    bare = QuadraticSystem(dim=1, constraints=(ball(1),))
    assert direct_sum(s, bare).interior_witness is None
