"""The probe's refinement stops once its log has settled.

_probe_faces stops refining as soon as every face dimension 0..n has a
point and every constraint has been active: probe_signature reads only the
points, the skipped count and the ever-active constraints off the log, and
no later round can change them.  The refinement loop from before the exit
is kept here verbatim as the reference.  Reports must equal the
reference's on permuted complete templates, and the whole log must equal
it where the log never settles.
"""

import itertools
import random
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import facetforge.verifier as verifier
from dense_form import dense
from facetforge.constructor import realize
from facetforge.quadratics import ConvexQuadratic, QuadraticKind, QuadraticSystem, direct_sum
from facetforge.signatures import Signature
from facetforge.verifier import (
    DEFAULT_TUPLE_CAP,
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


def log_state(log: _FaceLog):
    return (
        {d: p.tolist() for d, p in log.points.items()},
        list(log.seen.items()),
        log.index,
        {j: p.tolist() for j, p in log.first_hit.items()},
        log.ever_active,
        log.skipped,
    )


def assert_same_unsettled_log(system, samples, seed):
    reduced, classes, *_ = _restrict_affine(system)
    if reduced.dim == 0 or not reduced.constraints:
        return
    ctx = _DimContext(reduced, classes)
    x0 = interior_point(reduced)
    dirs = _sampled_directions(reduced.dim, samples, seed)
    want = reference_probe_faces(ctx, x0, dirs)
    assert not want.settled()
    assert log_state(_probe_faces(ctx, x0, dirs)) == log_state(want)


def test_incomplete_templates_keep_the_whole_log():
    rng = random.Random(1601)
    for _ in range(8):
        n = rng.randint(2, 9)
        inner = rng.sample(range(1, n), rng.randint(0, n - 2))
        system = shuffled(realize(Signature.of(0, n, *inner)).system, rng)
        assert_same_unsettled_log(system, 800, rng.randint(0, 10**6))


def test_direct_sums_keep_the_whole_log():
    rng = random.Random(1602)
    done = 0
    while done < 4:
        sigs = [Signature.of(0, n, rng.randrange(1, n)) for n in (rng.randint(2, 5), 4)]
        dims = {d + e for d in sigs[0] for e in sigs[1]}
        if len(dims) == max(dims) + 1:
            continue  # a complete sumset may settle
        system = direct_sum(*(realize(sig).system for sig in sigs))
        assert_same_unsettled_log(system, 800, rng.randint(0, 10**6))
        done += 1


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


@pytest.mark.parametrize("kind", list(_CLASSES), ids=lambda k: k.value)
@pytest.mark.parametrize("with_ball", [False, True])
def test_single_classes_keep_the_whole_log(kind, with_ball):
    A, a, alpha = _CLASSES[kind]
    q = ConvexQuadratic(A=A, a=a, alpha=alpha)
    ball = ConvexQuadratic(A=((1, 0, 0), (0, 1, 0), (0, 0, 1)), a=(F(-1, 3), 0, 0),
                           alpha=F(1, 9) - 4)
    system = QuadraticSystem(dim=3, constraints=(q, ball) if with_ball else (q,))
    assert_same_unsettled_log(system, 600, 11)


def tuple_sizes(monkeypatch, system, faces):
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
        report = probe_signature(system, 2000, 42)
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
        states.append(log.settled())
        return _read_refined(ctx, log, pending, sols)

    monkeypatch.setattr(verifier, "_read_refined", read_refined)
    for system in systems:
        assert probe_signature(system, 2000, 42).signature == Signature(tuple(range(system.dim + 1)))
    assert states and not any(states)
