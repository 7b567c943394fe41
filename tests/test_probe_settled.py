"""The probe's refinement stops once no tuple size left can add a face.

A refined point of a tuple has the tuple in its active set, so its face
dimension is at most the least constant-direction dimension of the tuple's
members; for a tuple of size s that is at most top_s, the s-th largest of
the constraints' own.  _probe_faces stops refining size s, and skips every
larger size, as soon as every dimension 0..top_s has a point and every
constraint has been active: probe_signature reads only the points, the
skipped count and the ever-active constraints off the log, and no later
round can change them.  The refinement loop from before any exit is kept
here verbatim as the reference.  Reports must equal the reference's on
permuted templates, offset balls, balls cut by a halfspace, polytopes,
direct sums and every class with a ball; the reported parts of the log must equal it
everywhere, and the whole log wherever refinement ran to the end.
"""

import itertools
import random
import sys
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import facetforge.verifier as verifier
from dense_form import dense
from facetforge.constructor import realize
from facetforge.quadratics import ConvexQuadratic, QuadraticKind, QuadraticSystem, direct_sum
from facetforge.signatures import Signature
from facetforge.verifier import (
    DEFAULT_TUPLE_CAP,
    TOL_ACTIVE,
    _DimContext,
    _FaceLog,
    _gauss_newton_batch,
    _probe_faces,
    _read_hits,
    _read_refined,
    _restrict_affine,
    _sampled_directions,
    interior_point,
    probe_signature,
)
from settled_spy import probe_faces_and_fired


def reference_probe_faces(ctx: _DimContext, x0: np.ndarray, dirs: np.ndarray) -> _FaceLog:
    """_probe_faces as it was before the settled-log exit, verbatim apart
    from shooting its own rays, as _probe_faces now does."""
    m = ctx.fs.m
    log = _FaceLog(m, ctx.system.dim, x0)
    t, pts, vals = ctx.fs.ray_exit(x0, dirs)
    ok = np.isfinite(t)
    _read_hits(ctx, log, pts[ok], vals[:, ok])
    log.ever_active.update(log.first_hit)
    for size in range(1, min(DEFAULT_TUPLE_CAP, m) + 1):
        pending = []
        for tup in itertools.combinations(range(m), size):
            if size > 1 and not all(
                log.covered(sub) for sub in itertools.combinations(tup, size - 1)
            ):
                continue
            starts = [log.first_hit[j] for j in tup if j in log.first_hit]
            if starts:
                starts.append(np.mean(starts, axis=0))
            starts.append(x0)
            pending.append((tup, starts))
        for k in itertools.count():
            pending = [
                (tup, starts)
                for tup, starts in pending
                if k < len(starts) and not log.covered(tup)
            ]
            if not pending:
                break
            sols = _gauss_newton_batch(
                ctx.fs,
                np.array([tup for tup, _ in pending]),
                np.array([starts[k] for _, starts in pending]),
            )
            pending = _read_refined(ctx, log, pending, sols)
    return log


def shuffled(system: QuadraticSystem, rng: random.Random) -> QuadraticSystem:
    """The same set with coordinates relabelled and constraints reordered."""
    perm = rng.sample(range(system.dim), system.dim)
    cons = [
        ConvexQuadratic(A=[[A[i][j] for j in perm] for i in perm],
                        a=[q.a[i] for i in perm], alpha=q.alpha)
        for q in system.constraints for A in (dense(q),)
    ]
    rng.shuffle(cons)
    w = system.interior_witness
    return QuadraticSystem(system.dim, tuple(cons), None if w is None else [w[i] for i in perm])


def reference_report(monkeypatch, system, samples, seed):
    with monkeypatch.context() as patch:
        patch.setattr(verifier, "_probe_faces", reference_probe_faces)
        return probe_signature(system, samples, seed)


@pytest.mark.parametrize("n", range(1, 13))
def test_complete_templates_report_as_reference(monkeypatch, n):
    rng = random.Random(1600 + n)
    for _ in range(3):
        system = shuffled(realize(Signature(tuple(range(n + 1)))).system, rng)
        seed = rng.randint(0, 10**6)
        got = probe_signature(system, 500, seed)
        want = reference_report(monkeypatch, system, 500, seed)
        assert got.signature == want.signature
        assert got.warnings == want.warnings
        assert got.witnesses == want.witnesses


def reported_state(log: _FaceLog):
    """The parts of the log probe_signature reads, and the first hits."""
    return (
        {d: p.tolist() for d, p in log.points.items()},
        {j: p.tolist() for j, p in log.first_hit.items()},
        log.ever_active,
        log.skipped,
    )


def log_state(log: _FaceLog):
    return reported_state(log) + (list(log.seen.items()), log.index)


def assert_same_log(system, samples, seed):
    """The log's reported parts equal the reference's.  So does the whole
    log where refinement ran to the end; where it stopped on a settled log,
    the recorded sets are the reference's first ones.  Returns whether it
    stopped so, or None when the system leaves nothing to probe."""
    reduced, classes, *_ = _restrict_affine(system)
    if reduced.dim == 0 or not reduced.constraints:
        return None
    ctx = _DimContext(reduced, classes)
    x0 = interior_point(reduced)
    dirs = _sampled_directions(reduced.dim, samples, seed)
    want = reference_probe_faces(ctx, x0, dirs)
    got, fired = probe_faces_and_fired(ctx, x0, dirs)
    if not fired:
        assert log_state(got) == log_state(want)
        return False
    assert reported_state(got) == reported_state(want)
    recorded = len(got.seen)
    assert list(got.seen.items()) == list(want.seen.items())[:recorded]
    assert got.index == [{k for k in sets if k < recorded} for sets in want.index]
    return True


def test_incomplete_templates_keep_the_whole_log():
    rng = random.Random(1601)
    fired = []
    for _ in range(8):
        n = rng.randint(2, 9)
        inner = rng.sample(range(1, n), rng.randint(0, n - 2))
        system = shuffled(realize(Signature.of(0, n, *inner)).system, rng)
        fired.append(assert_same_log(system, 800, rng.randint(0, 10**6)))
    assert not all(fired)


def test_direct_sums_keep_the_whole_log():
    rng = random.Random(1602)
    fired = []
    while len(fired) < 4:
        sigs = [Signature.of(0, n, rng.randrange(1, n)) for n in (rng.randint(2, 5), 4)]
        dims = {d + e for d in sigs[0] for e in sigs[1]}
        if len(dims) == max(dims) + 1:
            continue  # a complete sumset may settle
        system = direct_sum(*(realize(sig).system for sig in sigs))
        fired.append(assert_same_log(system, 800, rng.randint(0, 10**6)))
    assert not all(fired)


# One quadratic of each non-empty class in R^3, alone or with a ball:
# (A, a, alpha) of <Ax,x> + 2<a,x> + alpha <= 0.  The empty class raises
# before any face is probed (tests/test_face_batch.py).
_CLASSES = {
    QuadraticKind.FULL_SPACE: (((0, 0, 0), (0, 0, 0), (0, 0, 0)), (0, 0, 0), -1),
    QuadraticKind.SINGLETON: (((2, 1, 0), (1, 2, 0), (0, 0, 1)), (-1, 0, 0), F(2, 3)),
    QuadraticKind.AFFINE_SUBSPACE: (((1, -1, 0), (-1, 1, 0), (0, 0, 0)), (1, -1, 0), 1),
    QuadraticKind.HALF_SPACE: (((0, 0, 0), (0, 0, 0), (0, 0, 0)), (1, 2, -1), -1),
    QuadraticKind.CYLINDER_BALL: (((2, 1, 0), (1, 2, 0), (0, 0, 1)), (0, 1, 0), -3),
    QuadraticKind.PARABOLOID_CYLINDER: (((1, 0, 0), (0, 0, 0), (0, 0, 0)), (0, -1, 0), 0),
}

# Alone, a halfspace has no face of dimension 0 or 1 and a paraboloid
# cylinder none of dimension 0, below their own constant-direction
# dimensions 2 and 1, so their logs never settle and are compared whole.
# The other probed cases settle: every dimension up to the bound shows.
_NEVER_SETTLE = {(QuadraticKind.HALF_SPACE, False), (QuadraticKind.PARABOLOID_CYLINDER, False)}


def ball_at(center, radius_sq):
    n = len(center)
    return ConvexQuadratic(A={i: {i: 1} for i in range(n)}, a=tuple(-F(c) for c in center),
                           alpha=sum(F(c) * F(c) for c in center) - F(radius_sq))


@pytest.mark.parametrize("kind", list(_CLASSES), ids=lambda k: k.value)
@pytest.mark.parametrize("with_ball", [False, True])
def test_single_classes_keep_the_whole_log(kind, with_ball):
    A, a, alpha = _CLASSES[kind]
    q = ConvexQuadratic(A=A, a=a, alpha=alpha)
    ball = ball_at((F(1, 3), 0, 0), 4)
    system = QuadraticSystem(dim=3, constraints=(q, ball) if with_ball else (q,))
    fired = assert_same_log(system, 600, 11)
    if fired is not None:
        assert fired == ((kind, with_ball) not in _NEVER_SETTLE)


def tuple_sizes(monkeypatch, system, faces, samples=2000, seed=42):
    """The probe's report and the size of every tuple it refined."""
    sizes = []
    kernel = verifier._gauss_newton_batch

    def counted(fs, rows, starts):
        sizes.extend([rows.shape[1]] * len(rows))
        return kernel(fs, rows, starts)

    with monkeypatch.context() as patch:
        # The reference calls the kernel through this module's binding.
        for module in (verifier, sys.modules[__name__]):
            patch.setattr(module, "_gauss_newton_batch", counted)
        patch.setattr(verifier, "_probe_faces", faces)
        report = probe_signature(system, samples, seed)
    return report, sizes


def test_complete_template_refines_no_tuples(monkeypatch):
    system = realize(Signature(tuple(range(13)))).system
    report, sizes = tuple_sizes(monkeypatch, system, _probe_faces)
    assert report.signature == Signature(tuple(range(13)))
    assert sizes and max(sizes) == 1
    _, before = tuple_sizes(monkeypatch, system, reference_probe_faces)
    assert before.count(1) == sizes.count(1) and before.count(2) > 0


def test_a_dimension_complete_log_still_refines_an_untouched_constraint(monkeypatch):
    # The disk cut by y <= 1/2 shows every dimension 0..2 at its ray hits,
    # but x <= 1 touches it only at (1, 0), which no ray hits; refinement
    # must still reach it, or the report would name it never active.
    zero = ((0, 0), (0, 0))
    system = QuadraticSystem(dim=2, constraints=(
        ConvexQuadratic(A=((1, 0), (0, 1)), a=(0, 0), alpha=-1),
        ConvexQuadratic(A=zero, a=(0, F(1, 2)), alpha=F(-1, 2)),
        ConvexQuadratic(A=zero, a=(F(1, 2), 0), alpha=-1),
    ), interior_witness=(0, 0))
    got = probe_signature(system, 500, 3)
    assert got.signature == Signature.of(0, 1, 2) and got.warnings == ()
    assert got == reference_report(monkeypatch, system, 500, 3)


def test_no_round_runs_on_a_settled_log(monkeypatch):
    # In the trapezoid |y| <= 1, |x| + y <= 2 the first round of pairs
    # finds the corners; the pairs that meet only outside it, or never,
    # have starts left.
    zero = ((0, 0), (0, 0))
    trapezoid = QuadraticSystem(dim=2, constraints=tuple(
        ConvexQuadratic(A=zero, a=(F(u, 2), F(v, 2)), alpha=alpha)
        for u, v, alpha in ((0, 1, -1), (0, -1, -1), (1, 1, -2), (-1, 1, -2))
    ), interior_witness=(F(1, 10), F(1, 5)))
    systems = [trapezoid] + [realize(Signature(tuple(range(n + 1)))).system for n in (8, 12)]
    states = []

    def read_refined(ctx, log, pending, sols):
        top = sorted(ctx.constant_dims, reverse=True)[len(pending[0][0]) - 1]
        states.append(log.settled(top))
        return _read_refined(ctx, log, pending, sols)

    monkeypatch.setattr(verifier, "_read_refined", read_refined)
    for system in systems:
        assert probe_signature(system, 2000, 42).signature == Signature(tuple(range(system.dim + 1)))
    assert states and not any(states)


def test_three_face_templates_refine_no_pairs(monkeypatch):
    # {0,k,7} is a ball and a cylinder with k constant directions: the hits
    # show dimension 0 and both constraints, which is all a pair can reach.
    rng = random.Random(1603)
    before = []
    for k in range(1, 7):
        for _ in range(3):
            system = shuffled(realize(Signature.of(0, k, 7)).system, rng)
            seed = rng.randint(0, 10**6)
            report, sizes = tuple_sizes(monkeypatch, system, _probe_faces, 500, seed)
            assert report.signature == Signature.of(0, k, 7)
            assert all(size == 1 for size in sizes), (k, sizes)
            want, old = tuple_sizes(monkeypatch, system, reference_probe_faces, 500, seed)
            assert report == want
            before.extend(old)
    assert any(size == 2 for size in before)


def test_refined_points_hold_their_tuple_active(monkeypatch):
    # The stopping rule rests on this: every converged solution handed to
    # _read_refined, which includes every refined point it records, has
    # its tuple inside the active set that the float evaluation reads.
    zero = ((0, 0), (0, 0))
    trapezoid = QuadraticSystem(dim=2, constraints=tuple(
        ConvexQuadratic(A=zero, a=(F(u, 2), F(v, 2)), alpha=alpha)
        for u, v, alpha in ((0, 1, -1), (0, -1, -1), (1, 1, -2), (-1, 1, -2))
    ), interior_witness=(F(1, 10), F(1, 5)))
    rng = random.Random(1604)
    systems = [trapezoid, QuadraticSystem(dim=3, constraints=(
        ball_at((F(1, 4), 0, 0), 2), ball_at((0, F(-1, 4), F(1, 2)), 3), ball_at((0, 0, 0), 1)))]
    systems += [shuffled(realize(Signature.of(0, n, *inner)).system, rng)
                for n, inner in ((4, (2,)), (6, (1, 3)), (7, (5,)))]
    checked = recorded = 0

    def read_refined(ctx, log, pending, sols):
        nonlocal checked, recorded
        for (tup, _), sol in zip(pending, sols):
            if not np.isnan(sol[0]):
                f = ctx.fs.eval_point(sol)
                assert (f[list(tup)] >= -TOL_ACTIVE).all(), (tup, f)
                checked += 1
        before = len(log.seen)
        unresolved = _read_refined(ctx, log, pending, sols)
        recorded += len(log.seen) - before
        return unresolved

    monkeypatch.setattr(verifier, "_read_refined", read_refined)
    for system in systems:
        probe_signature(system, 60, 7)
    assert checked and recorded


def probe_outcome(system, samples, seed, faces=_probe_faces):
    """probe_signature's report with faces as _probe_faces, or the
    exception it raised."""
    with mock.patch.object(verifier, "_probe_faces", faces):
        try:
            return probe_signature(system, samples, seed)
        except (ValueError, RuntimeError) as exc:
            return type(exc), str(exc)


_quarters = st.integers(-3, 3).map(lambda k: F(k, 4))


@st.composite
def templates(draw):
    """A template with shuffled coordinates; its least dimension may
    exceed 0."""
    n = draw(st.integers(1, 7))
    dims = draw(st.sets(st.integers(0, n - 1), max_size=4))
    return shuffled(realize(Signature.of(n, *dims)).system, random.Random(draw(st.integers())))


@st.composite
def offset_balls(draw, n=None):
    """Balls about quarter-integer centers, all holding the origin."""
    n = draw(st.integers(1, 3)) if n is None else n
    balls = []
    for _ in range(draw(st.integers(1, 3))):
        center = draw(st.lists(_quarters, min_size=n, max_size=n))
        radius_sq = draw(st.integers(1, 3))
        if sum(c * c for c in center) < radius_sq:
            balls.append(ball_at(center, radius_sq))
    if not balls:
        balls.append(ball_at((0,) * n, 1))
    return QuadraticSystem(dim=n, constraints=tuple(balls))


@st.composite
def cut_balls(draw):
    """A ball holding the origin, cut by a halfspace 2 u.x <= c, c > 0."""
    ball = draw(offset_balls()).constraints[0]
    n = ball.dim
    u = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
    cut = draw(st.integers(1, 8))
    halfspace = ConvexQuadratic(A=((0,) * n,) * n, a=u, alpha=F(-cut, 4))
    return QuadraticSystem(dim=n, constraints=(ball, halfspace))


@st.composite
def polytopes(draw):
    """Halfspaces 2 u.x <= c, c > 0, about the origin, with or without a
    ball holding it: their corners are found by refining pairs and triples."""
    n = draw(st.integers(2, 3))
    normals = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    zero = ((0,) * n,) * n
    cuts = [ConvexQuadratic(A=zero, a=draw(normals), alpha=F(-draw(st.integers(1, 8)), 4))
            for _ in range(draw(st.integers(2, 5)))]
    if draw(st.booleans()):
        cuts.append(draw(offset_balls(n)).constraints[0])
    return QuadraticSystem(dim=n, constraints=tuple(cuts))


@st.composite
def classes_with_a_ball(draw):
    A, a, alpha = _CLASSES[draw(st.sampled_from(list(_CLASSES)))]
    ball = ball_at((draw(st.sampled_from([F(-1, 3), 0, F(1, 3)])), 0, 0), 4)
    return QuadraticSystem(dim=3, constraints=(ConvexQuadratic(A=A, a=a, alpha=alpha), ball))


_parts = st.one_of(templates(), offset_balls(), cut_balls())
_systems = st.one_of(
    templates(), offset_balls(), cut_balls(), polytopes(), classes_with_a_ball(),
    st.tuples(_parts, _parts).map(lambda pair: direct_sum(*pair)),
)


@settings(max_examples=80, deadline=None)
@given(_systems, st.sampled_from([40, 200, 500]), st.integers(0, 10**6))
def test_reports_equal_the_reference(system, samples, seed):
    assert probe_outcome(system, samples, seed) == probe_outcome(
        system, samples, seed, reference_probe_faces)
