"""Verifier tests: block split, exact path, probe path, cross-validation.

The exact path is checked against hand-derived signatures and against
minimal_face_dim_at applied to its own witnesses; the probe path is checked
against the exact path on a seeded battery of constructed systems.
"""

import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from facetforge.constructor import (
    build_ball,
    build_ball_cylinder_system,
    build_complete_dyadic,
    build_cylinder,
    default_params,
    realize,
)
from facetforge.quadratics import ConvexQuadratic, QuadraticSystem, embed, evaluate
from facetforge.signatures import Signature
from facetforge.verifier import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    DisjointnessCertificate,
    InfeasibleSystem,
    NoInteriorFound,
    UnrecognizedStructure,
    blocks,
    boundary_sample,
    disjointness_certificate,
    exact_signature,
    interior_point,
    minimal_face_dim_at,
    probe_signature,
    _FloatSystem,
    _gauss_newton_batch,
)

F = Fraction


def ball_at(center, radius_sq, n):
    a = tuple(-F(c) for c in center)
    alpha = sum(F(c) * F(c) for c in center) - F(radius_sq)
    eye = tuple(
        tuple(F(1) if i == j else F(0) for j in range(n)) for i in range(n)
    )
    return ConvexQuadratic(A=eye, a=a, alpha=alpha)


def test_disjointness_certificate():
    cert = disjointness_certificate(default_params())
    assert cert.excess == F(107, 100)
    assert cert.separation == F(1649, 10000)
    assert cert.radius_gap == F(1, 10)
    assert cert.holds
    assert not DisjointnessCertificate(F(1), F(0), F(1)).holds


def test_blocks_split():
    constant = ConvexQuadratic(
        A=((F(0),) * 5,) * 5, a=(F(0),) * 5, alpha=F(-1)
    )
    system = QuadraticSystem(
        dim=5,
        constraints=(embed(build_ball(2), 5, 0), embed(build_ball(1), 5, 3), constant),
    )
    split = blocks(system)
    assert tuple(b.indices for b in split.blocks) == ((0, 1), (3,))
    assert split.free_indices == (2, 4)
    assert len(split.constant_constraints) == 1
    assert split.blocks[0].system.dim == 2
    assert len(split.blocks[0].system.constraints) == 1


def test_exact_signature_single_constraints():
    cases = [
        (build_ball(3), (0, 3)),
        (build_cylinder(2, 4, default_params()), (2, 4)),
        # halfspace 2 x_1 <= 1
        (ConvexQuadratic(A=((0, 0), (0, 0)), a=(1, 0), alpha=-1), (1, 2)),
        # paraboloid x_1^2 + 2 x_2 <= 0
        (ConvexQuadratic(A=((1, 0), (0, 0)), a=(0, 1), alpha=0), (0, 2)),
        # affine subspace (x_1 - x_2)^2 <= 0
        (ConvexQuadratic(A=((1, -1), (-1, 1)), a=(0, 0), alpha=0), (1,)),
    ]
    for q, elements in cases:
        system = QuadraticSystem(dim=q.dim, constraints=(q,))
        report = exact_signature(system)
        assert report.method == "exact"
        assert report.signature.elements == elements
        assert set(report.witnesses) == set(elements)
        for d, w in report.witnesses.items():
            assert evaluate(q, w) <= 0
            assert minimal_face_dim_at(system, w) == d


def test_exact_signature_template():
    for elements in [(0, 2, 5, 7), (1, 4, 6), (0, 1, 2, 3, 4)]:
        sig = Signature.of(*elements)
        system = realize(sig).system
        report = exact_signature(system)
        assert report.signature == sig
        assert set(report.witnesses) == set(elements)
        for d, w in report.witnesses.items():
            assert minimal_face_dim_at(system, w) == d


def test_exact_signature_across_blocks():
    result = realize(Signature.of(0, 1, 2, 3), use_decomposition=True)
    report = exact_signature(result.system)
    assert report.signature.elements == (0, 1, 2, 3)
    # dyadic variant of the same complete signature
    report7 = exact_signature(build_complete_dyadic(7))
    assert report7.signature.elements == tuple(range(8))
    for d, w in report7.witnesses.items():
        assert minimal_face_dim_at(build_complete_dyadic(7), w) == d


def test_exact_signature_infeasible():
    empty = ConvexQuadratic(A=((1, 0), (0, 1)), a=(0, 0), alpha=1)
    with pytest.raises(InfeasibleSystem):
        exact_signature(QuadraticSystem(dim=2, constraints=(empty,)))
    positive_constant = ConvexQuadratic(A=((0,),), a=(0,), alpha=2)
    with pytest.raises(InfeasibleSystem):
        exact_signature(QuadraticSystem(dim=1, constraints=(positive_constant,)))


def test_exact_signature_unrecognized_block():
    system = QuadraticSystem(
        dim=2, constraints=(build_ball(2), ball_at((0, 0), 4, 2))
    )
    with pytest.raises(UnrecognizedStructure):
        exact_signature(system)


def test_minimal_face_dim_on_template():
    system = build_ball_cylinder_system(Signature.of(0, 3, 5))
    assert minimal_face_dim_at(system, (0,) * 5) == 5
    assert minimal_face_dim_at(system, (1, 0, 0, 0, 0)) == 0
    touch = [F(0)] * 5
    touch[3] = F(9, 10)  # cylinder 3 touching point: r - c
    assert minimal_face_dim_at(system, touch) == 3
    with pytest.raises(ValueError):
        minimal_face_dim_at(system, (2, 0, 0, 0, 0))


def test_boundary_sample_hit_and_recession():
    ball = QuadraticSystem(dim=2, constraints=(build_ball(2),))
    hit = boundary_sample(ball, (0.0, 0.0), (1.0, 0.0))
    assert hit is not None
    assert np.allclose(hit, [1.0, 0.0], atol=1e-9)
    parab = QuadraticSystem(
        dim=2,
        constraints=(ConvexQuadratic(A=((1, 0), (0, 0)), a=(0, 1), alpha=0),),
    )
    assert boundary_sample(parab, (0.0, -1.0), (0.0, -1.0)) is None
    with pytest.raises(ValueError):
        boundary_sample(ball, (3.0, 0.0), (1.0, 0.0))


def test_boundary_sample_stops_at_first_exit():
    # ball and cylinders: each hit is feasible and a step past it is not
    system = build_ball_cylinder_system(Signature.of(0, 1, 3))
    rng = np.random.default_rng(8)
    for d in rng.standard_normal((40, 3)):
        hit = boundary_sample(system, (0.0, 0.0, 0.0), d)
        beyond = tuple(hit + 1e-6 * d / np.linalg.norm(d))
        assert max(float(evaluate(q, tuple(hit))) for q in system.constraints) <= 1e-12
        assert max(float(evaluate(q, beyond)) for q in system.constraints) > 0


def test_boundary_sample_far_hit_is_feasible():
    # paraboloid x^2 + y <= 0, ray almost along its axis: the exit lies near
    # t = 1e8, where rounding in f is far above the activity tolerance
    q = ConvexQuadratic(A=((1, 0), (0, 0)), a=(0, F(1, 2)), alpha=0)
    parab = QuadraticSystem(dim=2, constraints=(q,))
    d = np.array([1e-4, -1.0]) / np.hypot(1e-4, 1.0)
    hit = boundary_sample(parab, (0.0, -1.0), d)
    assert hit is not None and hit[1] < -1e7
    assert -1e-6 <= evaluate(q, tuple(hit)) <= 0


def test_interior_point_uses_witness():
    system = build_ball_cylinder_system(Signature.of(0, 2, 4))
    x = interior_point(system)
    assert np.allclose(x, np.zeros(4))
    bare = QuadraticSystem(dim=2, constraints=(ball_at((3, -1), 1, 2),))
    y = interior_point(bare)
    vals = [float(evaluate(q, tuple(y))) for q in bare.constraints]
    assert max(vals) < 0


@pytest.mark.parametrize(
    "system",
    [
        # 5 <= x <= 5.1: no matrix entry, so the barrier Hessian has none
        QuadraticSystem(dim=1, constraints=(
            ConvexQuadratic(A=[[0]], a=[-1], alpha=10),
            ConvexQuadratic(A=[[0]], a=[1], alpha=F(-51, 5)),
        )),
        # a thin lens of two balls that holds neither center nor their mean
        QuadraticSystem(dim=2, constraints=(
            ball_at((F(599, 100), 0), 1, 2), ball_at((8, 0), F(104, 100), 2),
        )),
    ],
    ids=["slab", "lens"],
)
def test_interior_point_after_phase_one_polish(system, monkeypatch):
    # No warm start is feasible, so phase I runs and the polish solves.
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    x = interior_point(system)
    assert solves
    point = tuple(map(F, x.tolist()))
    assert all(evaluate(q, point) < 0 for q in system.constraints)


def test_interior_point_raises_on_touching_balls():
    # two unit balls meeting in the single point (1, 0)
    system = QuadraticSystem(
        dim=2, constraints=(ball_at((0, 0), 1, 2), ball_at((2, 0), 1, 2))
    )
    with pytest.raises(NoInteriorFound):
        interior_point(system)


def test_probe_signature_deterministic():
    system = build_ball_cylinder_system(Signature.of(0, 1, 3))
    a = probe_signature(system, samples=300, seed=11)
    b = probe_signature(system, samples=300, seed=11)
    assert a.signature == b.signature
    assert a.witnesses == b.witnesses
    assert a.method == "probe"
    assert a.confidence.kind == "probabilistic"
    assert a.confidence.samples == 300


def test_probe_handles_affine_restriction():
    # plane x_1 = x_2 cut with the unit ball: a disk, signature {0, 2}
    plane = ConvexQuadratic(A=((1, -1, 0), (-1, 1, 0), (0, 0, 0)), a=(0, 0, 0), alpha=0)
    system = QuadraticSystem(dim=3, constraints=(plane, build_ball(3)))
    with pytest.raises(UnrecognizedStructure):
        exact_signature(system)
    report = probe_signature(system, samples=400, seed=5)
    assert report.signature.elements == (0, 2)
    for d, w in report.witnesses.items():
        assert max(float(evaluate(q, w)) for q in system.constraints) <= 1e-6


def test_probe_reports_lineality_warning():
    # two slabs sharing the lineality direction (1, 1, 0)
    s1 = ConvexQuadratic(A=((1, -1, 0), (-1, 1, 0), (0, 0, 0)), a=(0, 0, 0), alpha=-1)
    s2 = ConvexQuadratic(
        A=((1, -1, 1), (-1, 1, -1), (1, -1, 1)), a=(0, 0, 0), alpha=-1
    )
    system = QuadraticSystem(dim=3, constraints=(s1, s2))
    report = probe_signature(system, samples=200, seed=3)
    assert any("unbounded" in w for w in report.warnings)


def test_probe_matches_exact_on_random_templates():
    rng = random.Random(314)
    for _ in range(20):
        n = rng.randint(1, 5)
        elements = sorted(rng.sample(range(n + 1), rng.randint(1, n + 1)))
        if n not in elements:
            elements.append(n)
        sig = Signature.of(*elements)
        system = realize(sig).system
        exact = exact_signature(system)
        probe = probe_signature(system, samples=500, seed=rng.randint(0, 10**6))
        assert exact.signature == sig
        assert probe.signature == sig, f"probe missed on {sig}"
        skipped = [w for w in probe.warnings if "skipped" in w]
        assert not skipped


@pytest.mark.parametrize("top, seed", [(12, 42), (12, 7), (10, 7)])
def test_probe_recovers_faces_no_ray_reaches(top, seed):
    # on these templates no ray of the 2000 touches some cylinders; the
    # single-constraint refinement still finds their faces
    sig = Signature.of(*range(top + 1))
    report = probe_signature(realize(sig).system, samples=2000, seed=seed)
    assert report.signature == sig
    assert not any("never active" in w for w in report.warnings)


@pytest.mark.parametrize("prefix", [(), ("plane",)])
def test_probe_names_never_active_constraints(prefix):
    # the ball of radius 2 contains the unit ball, so it is never active;
    # the warning names it by its index in the caller's system, also when
    # an affine constraint before it is restricted away
    n = 3 if prefix else 2
    plane = ConvexQuadratic(A=((1, -1, 0), (-1, 1, 0), (0, 0, 0)), a=(0, 0, 0), alpha=0)
    constraints = (plane,) * len(prefix) + (ball_at((0,) * n, 1, n), ball_at((0,) * n, 4, n))
    system = QuadraticSystem(dim=n, constraints=constraints)
    report = probe_signature(system, samples=300, seed=2)
    assert report.signature.elements == (0, 2)
    never = [w for w in report.warnings if "never active" in w]
    assert never == [
        f"constraint(s) {len(constraints) - 1} never active at a boundary hit "
        "or refinement; faces on them may be missing"
    ]
    assert not re.search(r"(\d+) of \d+ samples skipped", never[0])
    assert "skipped" not in never[0]


def _float_system(*constraints):
    return _FloatSystem.from_system(
        QuadraticSystem(dim=constraints[0].dim, constraints=constraints)
    )


# Candidates on (unit ball, halfspace 2 x_0 <= 1), whose boundaries meet, and
# on (x^2 <= 1, (x - 3)^2 <= 1) lifted to the plane, whose boundaries do not.
_MEETING = (ball_at((0, 0), 1, 2), ConvexQuadratic(A=((0, 0), (0, 0)), a=(1, 0), alpha=-1))
_APART = (ConvexQuadratic(A=((1, 0), (0, 0)), a=(0, 0), alpha=-1),
          ConvexQuadratic(A=((1, 0), (0, 0)), a=(-3, 0), alpha=8))


def test_gauss_newton_batch_meeting_pair_converges():
    # from a start off the x_0 axis (on it, the ball's gradient has no x_1
    # component and the steps never leave the axis)
    fs = _float_system(*_MEETING)
    sol = _gauss_newton_batch(fs, np.array([[0, 1]]), np.array([[0.0, 0.5]]))[0]
    assert np.isfinite(sol).all()
    assert np.abs(fs.eval_point(sol)).max() <= NEWTON_TOL
    assert np.allclose(sol, [0.5, np.sqrt(0.75)])


def test_gauss_newton_batch_disjoint_pair_fails():
    fs = _float_system(*_APART)
    sol = _gauss_newton_batch(fs, np.array([[0, 1]]), np.zeros((1, 2)))
    assert np.isnan(sol).all()


def test_gauss_newton_batch_keeps_candidates_apart():
    fs = _float_system(*_MEETING, *_APART)
    rows = np.array([[2, 3], [0, 1], [2, 3], [0, 1]])
    starts = np.array([[0.0, 0.0], [0.0, 0.5], [0.5, -1.0], [0.3, -0.2]])
    sols = _gauss_newton_batch(fs, rows, starts)
    assert np.isnan(sols[[0, 2]]).all()
    assert np.isfinite(sols[[1, 3]]).all()
    for sol in sols[[1, 3]]:
        assert np.abs(fs.eval_point(sol)[:2]).max() <= NEWTON_TOL


def _lstsq_gauss_newton(fs, rows, start):
    # reference: one lstsq solve per step, one candidate at a time
    x = start.copy()
    for _ in range(NEWTON_MAX_ITER):
        f = fs.eval_point(x)[rows]
        if np.abs(f).max() <= NEWTON_TOL:
            return x
        step, *_ = np.linalg.lstsq(fs.gradients(x)[rows], -f, rcond=None)
        x = x + step
        if not np.isfinite(x).all() or np.linalg.norm(x) > 1e12:
            break
    return np.full_like(x, np.nan)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_gauss_newton_batch_rows_match_single_runs(size):
    fs = _FloatSystem.from_system(realize(Signature.of(*range(9))).system)
    rows = np.array(list(itertools.combinations(range(fs.m), size)))
    starts = np.random.default_rng(size).standard_normal((len(rows), fs.n)) / 2
    batch = _gauss_newton_batch(fs, rows, starts)
    alone = np.array([_gauss_newton_batch(fs, r[None], s[None])[0] for r, s in zip(rows, starts)])
    np.testing.assert_array_equal(batch, alone)
    # the pseudo-inverse step and the lstsq step round differently, so the
    # reference agrees to a tolerance far above rounding and far below the
    # distance between distinct solutions
    reference = np.array([_lstsq_gauss_newton(fs, r, s) for r, s in zip(rows, starts)])
    np.testing.assert_allclose(batch, reference, rtol=0, atol=1e-9)
