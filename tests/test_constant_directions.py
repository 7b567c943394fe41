"""One exact route per face measurement.

_DimContext.direction_space reads an active set's face directions off one
null space, quadratics.constant_directions of the active constraints, and
checks each constraint once against its classification when the context is
built.  The two-route direction space it replaced (the intersection of the
per-constraint spaces, rechecked against the stacked null space) is kept
here verbatim as a reference, and both run on seeded templates, direct sums
with every class of single quadratic, offset balls and a ball cut by a
halfspace: on every active set the probe records and every constraint
subset of size at most 3.  A planted wrong class must still mark every
point whose active set holds that constraint, and only those.
"""

import dataclasses
import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest

import facetforge.verifier as verifier
from facetforge.constructor import realize
from facetforge.exact_linalg import full_space, intersect_subspaces, null_space_basis
from facetforge.quadratics import (
    ConvexQuadratic,
    QuadraticKind,
    QuadraticSystem,
    classify,
    constant_direction_dim,
    constant_directions,
    direct_sum,
)
from facetforge.signatures import Signature
from facetforge.verifier import (
    InfeasibleSystem,
    ProbeMismatch,
    _DimContext,
    _probe_faces,
    _restrict_affine,
    _sampled_directions,
    interior_point,
    minimal_face_dim_at,
)

_KIND = QuadraticKind


def reference_direction_space(ctx, active):
    """The replaced two-route direction space, verbatim apart from taking
    the context."""
    n = ctx.system.dim
    spaces = []
    stacked = []
    for j in active:
        cls = ctx.classes[j]
        q = ctx.system.constraints[j]
        if cls.kind is _KIND.FULL_SPACE:
            continue
        if cls.kind is _KIND.EMPTY:
            raise InfeasibleSystem("active constraint admits no solution")
        rows = tuple(q.A.values())
        if cls.kind in (_KIND.AFFINE_SUBSPACE, _KIND.SINGLETON):
            spaces.append(null_space_basis(rows, n))
        else:
            spaces.append(cls.face_directions)
        stacked.extend(rows)
        stacked.append(q.a)
    direct = intersect_subspaces(spaces, ambient_dim=n)
    recheck = null_space_basis(tuple(stacked), n)
    if recheck.dim != direct.dim:
        raise ProbeMismatch(
            f"direction-space routes disagree on active set {active}: "
            f"{direct.dim} vs {recheck.dim}"
        )
    basis = np.array(
        [[float(e) for e in b] for b in direct.basis], dtype=float
    ).reshape(direct.dim, n)
    basis /= np.linalg.norm(basis, axis=1, keepdims=True)
    return direct, basis


def outcome(direction_space, ctx, active):
    try:
        space, basis = direction_space(ctx, active)
    except (InfeasibleSystem, ProbeMismatch) as exc:
        return type(exc)
    return space, basis.tolist()


def assert_same_spaces(ctx, sets):
    assert ctx.mismatched == set()
    for active in sets:
        want = outcome(reference_direction_space, ctx, active)
        assert outcome(_DimContext.direction_space, ctx, active) == want, active


def small_subsets(m):
    return [s for k in (1, 2, 3) for s in itertools.combinations(range(m), k)]


def check_system(system, samples, seed):
    """Both routes agree on the system's own context and, unless it is
    empty, on the probe's reduced context and every set the probe records."""
    full = _DimContext(system, [classify(q) for q in system.constraints])
    assert_same_spaces(full, small_subsets(len(system.constraints)))
    if any(c.kind is _KIND.EMPTY for c in full.classes):
        return
    reduced, classes, *_ = _restrict_affine(system)
    if reduced.dim == 0 or not reduced.constraints:
        return
    ctx = _DimContext(reduced, classes)
    x0 = interior_point(reduced)
    dirs = _sampled_directions(reduced.dim, samples, seed)
    log = _probe_faces(ctx, x0, dirs)
    assert log.seen
    recorded = [tuple(sorted(act)) for act in log.seen]
    assert_same_spaces(ctx, recorded + small_subsets(len(reduced.constraints)))


def ball_at(center, radius_sq, n):
    a = tuple(-F(c) for c in center)
    alpha = sum(F(c) * F(c) for c in center) - F(radius_sq)
    return ConvexQuadratic(A={i: {i: 1} for i in range(n)}, a=a, alpha=alpha)


# One quadratic of each class in R^3, with a cross term where the class
# allows one: (A, a, alpha) of <Ax,x> + 2<a,x> + alpha <= 0.
_CLASSES = {
    _KIND.EMPTY: (((0, 0, 0), (0, 0, 0), (0, 0, 0)), (0, 0, 0), 1),
    _KIND.FULL_SPACE: (((0, 0, 0), (0, 0, 0), (0, 0, 0)), (0, 0, 0), -1),
    _KIND.SINGLETON: (((2, 1, 0), (1, 2, 0), (0, 0, 1)), (-1, 0, 0), F(2, 3)),
    _KIND.AFFINE_SUBSPACE: (((1, -1, 0), (-1, 1, 0), (0, 0, 0)), (1, -1, 0), 1),
    _KIND.HALF_SPACE: (((0, 0, 0), (0, 0, 0), (0, 0, 0)), (1, 2, -1), -1),
    _KIND.CYLINDER_BALL: (((2, 1, 0), (1, 2, 0), (0, 0, 1)), (0, 1, 0), -3),
    _KIND.PARABOLOID_CYLINDER: (((1, 0, 0), (0, 0, 0), (0, 0, 0)), (0, -1, 0), 0),
}

_BALL_AND_HALFSPACE = QuadraticSystem(
    dim=2,
    constraints=(
        ball_at((0, 0), 1, 2),
        ConvexQuadratic(A=((0, 0), (0, 0)), a=(0, 1), alpha=0),
    ),
)


def test_constant_directions_of_each_class_are_its_face_directions():
    for kind, (A, a, alpha) in _CLASSES.items():
        q = ConvexQuadratic(A=A, a=a, alpha=alpha)
        cls = classify(q)
        assert cls.kind is kind
        space = constant_directions((q,), 3)
        assert constant_direction_dim((q,), 3) == space.dim
        if cls.face_directions is not None:
            assert space == cls.face_directions
        else:
            assert space.dim == cls.nullity
    pair = constant_directions(_BALL_AND_HALFSPACE.constraints, 2)
    assert pair.dim == 0 and constant_directions((), 2) == full_space(2)
    assert constant_direction_dim(_BALL_AND_HALFSPACE.constraints, 2) == 0
    assert constant_direction_dim((), 2) == 2


def test_templates_match_reference():
    rng = random.Random(1101)
    for _ in range(6):
        n = rng.randint(2, 9)
        inner = rng.sample(range(n), rng.randint(1, n))
        check_system(realize(Signature.of(n, *inner)).system, 600, rng.randint(0, 10**6))


@pytest.mark.parametrize("kind", list(QuadraticKind), ids=lambda k: k.value)
def test_direct_sums_with_each_class_match_reference(kind):
    A, a, alpha = _CLASSES[kind]
    single = QuadraticSystem(dim=3, constraints=(ConvexQuadratic(A=A, a=a, alpha=alpha),))
    template = realize(Signature.of(0, 2, 4)).system
    for system in (direct_sum(template, single), direct_sum(single, template)):
        check_system(system, 600, 1102)


def test_offset_balls_and_a_cut_ball_match_reference():
    rng = random.Random(1103)
    for count in (2, 3, 4):
        n = rng.randint(2, 4)
        balls = tuple(
            ball_at([F(rng.randint(-3, 3), 4) for _ in range(n)], rng.randint(1, 3), n)
            for _ in range(count)
        )
        check_system(QuadraticSystem(dim=n, constraints=balls), 600, rng.randint(0, 10**6))
    check_system(_BALL_AND_HALFSPACE, 600, 1104)


def planted(cls, n):
    """cls with its face directions, a proper subspace, replaced by R^n."""
    assert cls.face_directions.dim < n
    return dataclasses.replace(cls, face_directions=full_space(n))


def planted_points(system, samples, seed):
    """Boundary hits of the system, then its probe witnesses."""
    fs = verifier._FloatSystem.from_system(system)
    x0 = interior_point(system)
    t, pts, _ = fs.ray_exit(x0, _sampled_directions(system.dim, samples, seed))
    witnesses = verifier.probe_signature(system, samples, seed).witnesses.values()
    return np.concatenate([pts[np.isfinite(t)], np.array(list(witnesses))]), fs


@pytest.mark.parametrize(
    "system, bad",
    [(realize(Signature.of(0, 2, 4, 6)).system, j) for j in range(3)]
    + [(_BALL_AND_HALFSPACE, j) for j in range(2)],
    ids=["ball", "cylinder-2", "cylinder-4", "cut-ball", "cut-halfspace"],
)
def test_a_planted_wrong_class_marks_its_active_sets(system, bad, monkeypatch):
    pts, fs = planted_points(system, 400, 1105)
    fvals = fs.eval_batch(pts)
    true = [classify(q) for q in system.constraints]
    wrong = list(true)
    wrong[bad] = planted(true[bad], system.dim)
    active, dims, _ = _DimContext(system, true).measure_batch(pts, fvals)
    got_active, got, _ = _DimContext(system, wrong).measure_batch(pts, fvals)
    assert np.array_equal(got_active, active)
    holds = active[bad]
    assert holds.any() and (~holds).any() and (dims[holds] >= 0).all()
    assert (got[holds] == -1).all()
    assert np.array_equal(got[~holds], dims[~holds])

    real = verifier.classify
    monkeypatch.setattr(
        verifier, "classify",
        lambda q: wrong[bad] if q is system.constraints[bad] else real(q),
    )
    fresh = dataclasses.replace(system)
    for i in (int(np.flatnonzero(holds)[0]), int(np.flatnonzero(holds)[-1])):
        with pytest.raises(ProbeMismatch):
            minimal_face_dim_at(fresh, pts[i])
    for i in np.flatnonzero(~holds & (dims >= 0))[:5]:
        assert minimal_face_dim_at(fresh, pts[i]) == dims[i]
