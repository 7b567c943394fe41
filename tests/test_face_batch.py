"""The batched face measurement of the probe path against the loop it replaced.

_read_hits and _probe_faces measure boundary hits and refined points in
batches grouped by active set.  The per-hit loop and the per-point record
they replaced are kept here verbatim as references (the _DimContext methods
they called are reference functions taking the context), and both run on
the same hits: seeded templates, direct sums, every class of single
quadratic, offset balls, and a ball cut by a halfspace with rays aimed just
beside the corner, where the claimed face direction fails the +-eps probe.
Face points, first hits, ever-active constraints and the skipped count
must agree exactly, and so must the recorded active sets, except that a
log that settled (every dimension a tuple size left can reach found, every
constraint active) stops refining and may record only some of the
reference's.  Each test whose inputs can settle asserts that some of them
never do, so the recorded sets are still compared whole.

measure_batch probes the claimed face directions through each quadratic's
exact expansion around the values it is given, where the reference
evaluates the system at x +- PROBE_EPS u (reference_probe_directions).
Under derandomized hypothesis (permuted templates, coordinate-mixed single
quadratics of every class, offset balls, a ball cut by a halfspace beside
its rim) every hit whose reference worst value lies more than
1e-3 TOL_ACTIVE from TOL_ACTIVE must read the reference's dimension, in
its batch and alone; a parabolic cylinder narrower than the probe step
checks the curvature term, and a spy checks that no array of the probe
exceeds the entry budget.
"""

import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_form import dense
from facetforge.constructor import realize
from facetforge.quadratics import (
    ConvexQuadratic,
    QuadraticKind,
    QuadraticSystem,
    classify,
    direct_sum,
)
from facetforge.signatures import Signature
from facetforge.verifier import (
    DEFAULT_TUPLE_CAP,
    ENTRY_BUDGET,
    PROBE_EPS,
    InfeasibleSystem,
    TOL_ACTIVE,
    ProbeMismatch,
    _DimContext,
    _FaceLog,
    _FloatSystem,
    _gauss_newton_batch,
    _read_hits,
    _restrict_affine,
    _sampled_directions,
    boundary_sample,
    interior_point,
    minimal_face_dim_at,
    probe_signature,
)
from settled_spy import probe_faces_and_fired


def reference_active_set(fvals):
    return tuple(int(j) for j in np.flatnonzero(fvals >= -TOL_ACTIVE))


def reference_probe_directions(ctx, x, basis):
    """Check that every claimed face direction survives +-eps probing."""
    if not len(basis):
        return
    cand = np.concatenate([x + PROBE_EPS * basis, x - PROBE_EPS * basis])
    worst = float(ctx.fs.eval_batch(cand).max())
    if worst > TOL_ACTIVE:
        raise ProbeMismatch(
            "a claimed face direction exits the set at the probe step "
            f"(residual {worst:.3e}); active set is degenerate at this point"
        )


def reference_measure(ctx, x, fvals, active):
    """Face dimension at x, given fvals = f(x) and active_set(fvals)."""
    if fvals.size and float(fvals.max()) > TOL_ACTIVE:
        raise ValueError("point is not feasible within tolerance")
    if not active:
        return ctx.system.dim
    space, basis = ctx.direction_space(active)
    reference_probe_directions(ctx, x, basis)
    return space.dim


def reference_faces(ctx, x0, pts, ok, vals, refine=True):
    """The replaced hit loop and refinement of probe_signature, verbatim
    apart from the reference functions and an identity lift."""

    def lift(y):
        return y

    dims = {ctx.system.dim: x0}
    seen_active: set[frozenset[int]] = set()
    first_hit: dict[int, np.ndarray] = {}
    skipped = 0
    for i in np.flatnonzero(ok):
        fv = vals[:, i]
        active = reference_active_set(fv)
        if not active:
            continue
        for j in active:
            first_hit.setdefault(j, pts[i])
        try:
            d = reference_measure(ctx, pts[i], fv, active)
        except ProbeMismatch:
            skipped += 1
            continue
        seen_active.add(frozenset(active))
        if d not in dims:
            dims[d] = lift(pts[i])
    if not refine:
        return dims, seen_active, first_hit, skipped, set(first_hit)

    m = ctx.fs.m
    ever_active = set(first_hit)

    def covered(tup: tuple[int, ...]) -> bool:
        return any(act.issuperset(tup) for act in seen_active)

    def record(sol: np.ndarray) -> bool:
        """Record the face at a refined point; False if it is rejected."""
        if np.isnan(sol[0]):
            return False
        fv = ctx.fs.eval_point(sol)
        if fv.max() > TOL_ACTIVE:
            return False
        active = reference_active_set(fv)
        ever_active.update(active)
        try:
            d = reference_measure(ctx, sol, fv, active)
        except ProbeMismatch:
            return False
        seen_active.add(frozenset(active))
        if d not in dims:
            dims[d] = lift(sol)
        return True

    for size in range(1, min(DEFAULT_TUPLE_CAP, m) + 1):
        pending = []
        for tup in itertools.combinations(range(m), size):
            starts = [first_hit[j] for j in tup if j in first_hit]
            if starts:
                starts.append(np.mean(starts, axis=0))
            starts.append(x0)
            pending.append((tup, starts))
        for k in itertools.count():
            pending = [
                (tup, starts)
                for tup, starts in pending
                if k < len(starts) and not covered(tup)
            ]
            if not pending:
                break
            sols = _gauss_newton_batch(
                ctx.fs,
                np.array([tup for tup, _ in pending]),
                np.array([starts[k] for _, starts in pending]),
            )
            unresolved = []
            for entry, sol in zip(pending, sols):
                if not covered(entry[0]) and not record(sol):
                    unresolved.append(entry)
            pending = unresolved
    return dims, seen_active, first_hit, skipped, ever_active


def assert_same_points(got, want):
    assert list(got) == list(want)
    for key in want:
        assert np.array_equal(got[key], want[key]), key


def assert_matches_reference(ctx, x0, dirs):
    """Both stages agree with the reference on the rays from x0 along dirs;
    returns the reference's skipped count and whether refinement stopped on
    a settled log."""
    t, pts, vals = ctx.fs.ray_exit(x0, dirs)
    ok = np.isfinite(t)
    hits = _FaceLog(ctx.fs.m, ctx.system.dim, x0)
    _read_hits(ctx, hits, pts[ok], vals[:, ok])
    dims, seen, first_hit, skipped, _ = reference_faces(ctx, x0, pts, ok, vals, refine=False)
    assert_same_points(hits.points, dims)
    assert set(hits.seen) == seen
    assert_same_points(hits.first_hit, dict(sorted(first_hit.items())))
    assert hits.skipped == skipped

    log, fired = probe_faces_and_fired(ctx, x0, dirs)
    dims, seen, first_hit, skipped, ever_active = reference_faces(ctx, x0, pts, ok, vals)
    assert_same_points(log.points, dims)
    # Refinement stops once the log settles, so it may record fewer sets.
    assert set(log.seen) <= seen
    if not fired:
        assert set(log.seen) == seen
    assert_same_points(log.first_hit, dict(sorted(first_hit.items())))
    assert log.skipped == skipped
    assert log.ever_active == ever_active
    return skipped, fired


def check_system(system, samples, seed):
    reduced, classes, *_ = _restrict_affine(system)
    if reduced.dim == 0 or not reduced.constraints:
        return None
    ctx = _DimContext(reduced, classes)
    x0 = interior_point(reduced)
    dirs = _sampled_directions(reduced.dim, samples, seed)
    return assert_matches_reference(ctx, x0, dirs)


def ball_at(center, radius_sq, n):
    a = tuple(-F(c) for c in center)
    alpha = sum(F(c) * F(c) for c in center) - F(radius_sq)
    eye = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
    return ConvexQuadratic(A=eye, a=a, alpha=alpha)


def test_templates_match_reference():
    rng = random.Random(801)
    fired = []
    for _ in range(8):
        n = rng.randint(2, 9)
        inner = rng.sample(range(n), rng.randint(1, n))
        system = realize(Signature.of(n, *inner)).system
        skipped, settled = check_system(system, 1000, rng.randint(0, 10**6))
        assert skipped == 0
        fired.append(settled)
    assert not all(fired)


def test_direct_sums_match_reference():
    rng = random.Random(802)
    fired = []
    for _ in range(4):
        parts = []
        for _ in range(2):
            n = rng.randint(1, 4)
            parts.append(realize(Signature.of(n, *rng.sample(range(n), 1))).system)
        skipped, settled = check_system(direct_sum(*parts), 800, rng.randint(0, 10**6))
        assert skipped == 0
        fired.append(settled)
    assert not all(fired)


# One quadratic of each class in R^3, with a cross term where the class
# allows one: (A, a, alpha) of <Ax,x> + 2<a,x> + alpha <= 0.
_CLASSES = {
    QuadraticKind.EMPTY: (((0, 0, 0), (0, 0, 0), (0, 0, 0)), (0, 0, 0), 1),
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


@pytest.mark.parametrize("kind", list(QuadraticKind), ids=lambda k: k.value)
@pytest.mark.parametrize("with_ball", [False, True])
def test_single_quadratic_classes_match_reference(kind, with_ball):
    A, a, alpha = _CLASSES[kind]
    q = ConvexQuadratic(A=A, a=a, alpha=alpha)
    assert classify(q).kind is kind
    constraints = (q, ball_at((F(1, 3), 0, 0), 4, 3)) if with_ball else (q,)
    system = QuadraticSystem(dim=3, constraints=constraints)
    if kind is QuadraticKind.EMPTY:
        with pytest.raises(InfeasibleSystem):
            check_system(system, 600, 11)
        return
    outcome = check_system(system, 600, 11)
    if outcome is not None:
        skipped, fired = outcome
        assert skipped == 0
        assert fired == ((kind, with_ball) not in _NEVER_SETTLE)


def test_offset_balls_match_reference():
    rng = random.Random(803)
    fired = []
    for count in (2, 3, 4):
        n = rng.randint(2, 4)
        balls = tuple(
            ball_at([F(rng.randint(-3, 3), 4) for _ in range(n)], rng.randint(1, 3), n)
            for _ in range(count)
        )
        system = QuadraticSystem(dim=n, constraints=balls)
        skipped, settled = check_system(system, 800, rng.randint(0, 10**6))
        assert skipped == 0
        fired.append(settled)
    assert not all(fired)


def test_degenerate_active_sets_are_skipped_alike():
    # Unit ball cut by 2y <= 0.  Rays aimed at (+-(1 - s), 0) with s of a
    # few 1e-7 exit through the halfspace with the ball inactive, and its
    # face direction x leaves the ball within the probe step.
    system = QuadraticSystem(
        dim=2,
        constraints=(
            ball_at((0, 0), 1, 2),
            ConvexQuadratic(A=((0, 0), (0, 0)), a=(0, 1), alpha=0),
        ),
    )
    reduced, classes, *_ = _restrict_affine(system)
    ctx = _DimContext(reduced, classes)
    x0 = np.array([0.0, -0.5])
    aims = [(sign * (1 - k * 1e-7), 0.0) for k in range(1, 9) for sign in (1, -1)]
    aimed = np.array(aims) - x0
    aimed /= np.linalg.norm(aimed, axis=1, keepdims=True)
    dirs = np.concatenate([_sampled_directions(2, 200, 5), aimed])
    dirs = dirs[np.random.default_rng(6).permutation(len(dirs))]
    skipped, _ = assert_matches_reference(ctx, x0, dirs)
    assert skipped >= len(aims)


def test_measure_batch_chunks_like_one_batch(monkeypatch):
    system = realize(Signature.of(0, 1, 2, 3, 4)).system
    ctx = _DimContext(system, _restrict_affine(system)[1])
    x0 = interior_point(system)
    t, pts, vals = ctx.fs.ray_exit(x0, _sampled_directions(4, 500, 3))
    ok = np.isfinite(t)
    whole = ctx.measure_batch(pts[ok], vals[:, ok])
    monkeypatch.setattr("facetforge.verifier.ENTRY_BUDGET", 7)
    chunked = ctx.measure_batch(pts[ok], vals[:, ok])
    assert np.array_equal(whole[0], chunked[0]) and np.array_equal(whole[1], chunked[1])
    assert [s for s, _ in whole[2]] == [s for s, _ in chunked[2]]


def changed(system, M):
    """The system in coordinates y with x = M y, M an integer matrix of
    determinant +-1: A -> M^T A M, a -> M^T a.  A permutation matrix keeps
    the interior witness, M^T w."""
    n = system.dim
    cons = []
    for q in system.constraints:
        A = dense(q)
        AM = [[sum(A[i][k] * M[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        cons.append(ConvexQuadratic(
            A=[[sum(M[k][i] * AM[k][j] for k in range(n)) for j in range(n)] for i in range(n)],
            a=[sum(M[k][i] * q.a[k] for k in range(n)) for i in range(n)],
            alpha=q.alpha,
        ))
    w = system.interior_witness
    if w is not None and all(sorted(row) == [0] * (n - 1) + [1] for row in M):
        w = [sum(M[k][i] * w[k] for k in range(n)) for i in range(n)]
    else:
        w = None
    return QuadraticSystem(n, tuple(cons), w)


def unimodular(draw, n, permutation):
    """A permutation matrix, or a product of elementary row additions."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    if permutation:
        return [M[i] for i in draw(st.permutations(range(n)))]
    for _ in range(draw(st.integers(1, 2 * n))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        c = draw(st.integers(-2, 2))
        M[i] = [x + c * y for x, y in zip(M[i], M[j])]
    return M


@st.composite
def measured_systems(draw):
    """(system, aims): a permuted template, a coordinate-mixed quadratic of
    any class (with or without a ball), offset balls about the origin, or
    a unit ball in R^3 centered on the x axis cut by y <= h, with points
    aimed just inside the rim where the plane z = 0 meets it: there the
    claimed face direction e_x, one of two, exits the ball within the probe
    step."""
    kind = draw(st.sampled_from(["template", "single", "balls", "corner"]))
    if kind == "template":
        n = draw(st.integers(2, 8))
        inner = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        system = realize(Signature.of(n, *inner)).system
        return changed(system, unimodular(draw, n, permutation=True)), []
    if kind == "single":
        A, a, alpha = _CLASSES[draw(st.sampled_from(list(QuadraticKind)))]
        q = ConvexQuadratic(A=A, a=a, alpha=alpha)
        ball = (ball_at((F(1, 3), 0, 0), 4, 3),) if draw(st.booleans()) else ()
        system = QuadraticSystem(dim=3, constraints=(q,) + ball)
        return changed(system, unimodular(draw, 3, permutation=False)), []
    if kind == "balls":
        n = draw(st.integers(2, 4))
        coords = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        centers = [[F(c, 4) for c in draw(coords)] for _ in range(draw(st.integers(2, 4)))]
        # every ball holds the origin inside
        balls = tuple(ball_at(c, sum(e * e for e in c) + draw(st.integers(1, 3)), n)
                      for c in centers)
        return QuadraticSystem(dim=n, constraints=balls), []
    h, shift = F(draw(st.integers(-3, 5)), 10), F(draw(st.integers(-2, 2)), 8)
    halfspace = ConvexQuadratic(A=[[0] * 3] * 3, a=(0, F(1, 2), 0), alpha=-h)
    corner = float(1 - h * h) ** 0.5
    aims = [(float(shift) + sign * (corner - k * 1e-7), float(h), 0.0)
            for k in range(1, 9) for sign in (1, -1)]
    return QuadraticSystem(dim=3, constraints=(ball_at((shift, 0, 0), 1, 3), halfspace)), aims


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(measured_systems(), st.integers(0, 2**16))
def test_measure_batch_agrees_with_the_probe_reference(case, seed):
    # Every hit whose reference worst value max f(x +- PROBE_EPS u) lies
    # more than 1e-3 TOL_ACTIVE from TOL_ACTIVE reads the reference's
    # dimension, -1 where reference_measure raises ProbeMismatch, both in
    # the batch of all hits (mostly groups with more points than face
    # directions) and measured alone (fewer, where it has two or more).
    system, aims = case
    try:
        reduced, classes, *_ = _restrict_affine(system)
    except InfeasibleSystem:
        assert any(classify(q).kind is QuadraticKind.EMPTY for q in system.constraints)
        return
    if reduced.dim == 0 or not reduced.constraints:
        return
    ctx = _DimContext(reduced, classes)
    x0 = interior_point(reduced)
    dirs = _sampled_directions(reduced.dim, 300, seed)
    if aims:
        aimed = np.array(aims) - x0
        dirs = np.concatenate([dirs, aimed / np.linalg.norm(aimed, axis=1, keepdims=True)])
    t, pts, vals = ctx.fs.ray_exit(x0, dirs)
    ok = np.isfinite(t)
    pts, vals = pts[ok], vals[:, ok]
    _, dims, _ = ctx.measure_batch(pts, vals)
    compared = exits = 0
    for i, x in enumerate(pts):
        active = reference_active_set(vals[:, i])
        try:
            want = reference_measure(ctx, x, vals[:, i], active)
        except ProbeMismatch:
            want = -1
        if active and not any(j in ctx.mismatched for j in active):
            basis = ctx.direction_space(active)[1]
            if len(basis):
                cand = np.concatenate([x + PROBE_EPS * basis, x - PROBE_EPS * basis])
                worst = float(ctx.fs.eval_batch(cand).max())
                if abs(worst - TOL_ACTIVE) <= 1e-3 * TOL_ACTIVE:
                    continue
        alone = ctx.measure_batch(pts[i : i + 1], vals[:, i : i + 1])[1][0]
        assert dims[i] == alone == want, (i, x, active)
        compared += 1
        exits += want < 0
    assert compared >= 0.9 * len(pts)
    if aims:
        assert exits >= len(aims) // 2


def test_the_probe_step_reads_the_curvature():
    # y <= 0 over the parabolic cylinder y >= 10^6 x^2 - 10^-7 in R^3,
    # which is 6.3e-7 wide at the top.  From every hit on the top the probe
    # step 1e-6 along x, one of the two face directions, leaves the
    # cylinder; where |x| < 5e-8 (about a quarter of the hits) only through
    # the curvature term eps^2 u^T A u = 1e-6, as the slope term
    # 2 eps |u^T (A x + a)| = 2e6 eps |x| is below 1e-7 there.  Both in the
    # batch and alone, with fewer points than face directions.
    zero = [0] * 3
    system = QuadraticSystem(dim=3, constraints=(
        ConvexQuadratic(A=[[10**6, 0, 0], zero, zero], a=(0, F(-1, 2), 0),
                        alpha=F(-1, 10**7)),
        ConvexQuadratic(A=[zero] * 3, a=(0, F(1, 2), 0), alpha=0),
    ))
    ctx = _DimContext(system, [classify(q) for q in system.constraints])
    x0 = np.array([0.0, -5e-8, 0.0])
    t, pts, vals = ctx.fs.ray_exit(x0, _sampled_directions(3, 600, 8))
    ok = np.isfinite(t)
    pts, vals = pts[ok], vals[:, ok]
    _, dims, _ = ctx.measure_batch(pts, vals)
    top = [i for i in range(len(pts)) if reference_active_set(vals[:, i]) == (1,)]
    assert len(top) > 50 and np.count_nonzero(np.abs(pts[top, 0]) < 5e-8) > 20
    for i in top:
        with pytest.raises(ProbeMismatch):
            reference_measure(ctx, pts[i], vals[:, i], (1,))
        assert ctx.measure_batch(pts[i : i + 1], vals[:, i : i + 1])[1][0] == -1
    assert (dims[top] == -1).all()


class Watched(np.ndarray):
    """An array that records the shape of every array made from it, views
    of the watched inputs (transposes, slices) apart."""

    inputs: list[np.ndarray] = []
    made: list[tuple[int, ...]] = []

    def __array_finalize__(self, obj):
        if not any(np.may_share_memory(self, x) for x in Watched.inputs):
            Watched.made.append(self.shape)


@pytest.mark.parametrize("budget", [ENTRY_BUDGET, 7, 13])
def test_measure_batch_probes_within_the_entry_budget(monkeypatch, budget):
    # The face probe builds no array of more than cap = max(budget, m, n)
    # entries: neither an array made from the points or the face bases
    # (watched) nor a piece of products A_j r that fs.products returns.
    # The products go to the fewer rows of a group, its k face directions
    # or its P points, so together the pieces take m min(k, P) (row, j)
    # pairs per group, and the dims are those of the default budget.  On
    # {0..4} (m = n = 4) every group of the hits has more points than
    # directions; one point per group has fewer where k is 2 or 3.  A piece
    # holds budget // n pairs, one at budget 7 and three at 13, so every
    # group is cut.
    system = realize(Signature.of(0, 1, 2, 3, 4)).system
    ctx = _DimContext(system, _restrict_affine(system)[1])
    x0 = interior_point(system)
    t, pts, vals = ctx.fs.ray_exit(x0, _sampled_directions(4, 3000, 3))
    ok = np.isfinite(t)
    pts, vals = pts[ok], vals[:, ok]
    whole = ctx.measure_batch(pts, vals)
    firsts = np.array([members[0] for _, members in whole[2]])
    batches = [(pts, vals, whole), (pts[firsts], vals[:, firsts],
                                    ctx.measure_batch(pts[firsts], vals[:, firsts]))]
    monkeypatch.setattr("facetforge.verifier.ENTRY_BUDGET", budget)
    m, n = ctx.fs.m, ctx.fs.n
    cap = max(budget, m, n)
    bases = []
    for act, (space, basis) in list(ctx._spaces.items()):
        ctx._spaces[act] = space, basis.view(Watched)
        bases.append(basis)
    pieces, products = [], ctx.fs.products

    def products_spy(xs, rows):
        out = products(xs, rows)
        pieces.append(rows.size)
        Watched.made.append(out.shape)
        return out

    monkeypatch.setattr(ctx.fs, "products", products_spy)
    sides = set()
    for batch_pts, batch_vals, (_, want, groups) in batches:
        watched = batch_pts.view(Watched)
        Watched.inputs = [watched, *bases]
        Watched.made.clear()
        pieces.clear()
        _, dims, _ = ctx.measure_batch(watched, batch_vals)
        np.testing.assert_array_equal(dims, want)
        assert (dims >= 0).all()
        assert Watched.made and max(int(np.prod(s)) for s in Watched.made) <= cap
        shapes = [(len(ctx._spaces[act][1]), len(members)) for act, members in groups if act]
        probed = [m * min(k, P) for k, P in shapes if k]
        sides.update(k <= P for k, P in shapes if k)
        assert sum(pieces) == sum(probed)
        if budget < ENTRY_BUDGET:
            assert max(pieces) == budget // n < min(probed)
    assert sides == {True, False}


def test_minimal_face_dim_at_keeps_one_context():
    system = realize(Signature.of(0, 2, 5)).system
    report = probe_signature(system, samples=300, seed=4)
    for d, w in report.witnesses.items():
        assert minimal_face_dim_at(system, w) == d
    ctx = system.__dict__["_dim_context"]
    for d, w in report.witnesses.items():
        assert minimal_face_dim_at(system, w) == d
    assert system.__dict__["_dim_context"] is ctx
    assert system == realize(Signature.of(0, 2, 5)).system
    with pytest.raises(ValueError):
        minimal_face_dim_at(system, (2, 0, 0, 0, 0))


def test_one_float_copy_per_system(monkeypatch):
    # boundary_sample, minimal_face_dim_at and interior_point read the
    # float copy kept on the system; repeated calls build it once and
    # answer as calls on a fresh copy of the system do.
    def fresh():
        system = realize(Signature.of(0, 2, 5)).system
        return QuadraticSystem(system.dim, system.constraints)

    def answers(system):
        x0 = interior_point(system)
        hits = [boundary_sample(system, x0, d) for d in _sampled_directions(5, 12, 9)]
        return x0, hits, [minimal_face_dim_at(system, h) for h in hits]

    builds = []
    from_system = _FloatSystem.from_system.__func__

    def spy(cls, system):
        builds.append(system)
        return from_system(cls, system)

    system = fresh()
    monkeypatch.setattr(_FloatSystem, "from_system", classmethod(spy))
    first, second = answers(system), answers(system)
    assert len(builds) == 1 and builds[0] is system
    want = answers(fresh())
    for got in (first, second):
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(np.array(got[1]), np.array(want[1]))
        assert got[2] == want[2]
