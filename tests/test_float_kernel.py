"""The float kernel over nonzero triples against the dense tensor it replaced.

verifier._FloatSystem holds each constraint's matrix as its nonzero
entries and sums each constraint's terms in one fixed order.  The dense
m x n x n _FloatSystem and the _gauss_newton_batch that took a tensordot
over it are kept here verbatim as references (renamed
DenseFloatSystem and dense_gauss_newton_batch).  Under derandomized
hypothesis both run on the same systems: PSD Gram matrices with zero rows,
halfspaces and constant constraints, which have no nonzero entries,
templates with permuted coordinates, and direct sums of a template with
such a system.  The two sum in different orders, so values agree to
rounding, not bit for bit.  The new kernel's batches are constraint-major
(m x N), the reference's point-major (N x m).  _group_columns is compared
with the np.unique(active, axis=0) grouping it replaced.  On the same
systems, and on halfspaces and constants alone, ray_exit must return the
points its last check evaluated, with their values bit for bit, x0 and
f(x0) for a recession ray or a failed pull-back, and slice_boundary's rows
must be its points.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_row_major
from facetforge.constructor import realize
from facetforge.formats import EmptySlice, SliceSpec, slice_boundary
from facetforge.quadratics import ConvexQuadratic, QuadraticSystem, classify, direct_sum
from facetforge.signatures import Signature
from facetforge.verifier import (
    BACKOFF_FLOOR,
    GROWTH_LIMIT,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    _DimContext,
    _float_interior,
    _FloatSystem,
    _gauss_newton_batch,
    _group_columns,
    _sampled_directions,
)

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


class DenseFloatSystem:
    """Float copy of a system: f_j(x) = x^T A_j x + 2 a_j^T x + alpha_j."""

    def __init__(self, A: np.ndarray, a: np.ndarray, alpha: np.ndarray):
        self.A, self.a, self.alpha = A, a, alpha
        self.m, self.n = a.shape

    @classmethod
    def from_system(cls, system: QuadraticSystem) -> "DenseFloatSystem":
        n, m = system.dim, len(system.constraints)
        A = np.zeros((m, n, n))
        a = np.zeros((m, n))
        alpha = np.zeros(m)
        for k, q in enumerate(system.constraints):
            for i, row in q.A.items():
                A[k, i, list(row)] = [float(e) for e in row.values()]
            a[k] = [float(e) for e in q.a]
            alpha[k] = float(q.alpha)
        return cls(A, a, alpha)

    def restrict(self, base: np.ndarray, U: np.ndarray) -> "DenseFloatSystem":
        """The system on the affine space base + U^T p, in coordinates p."""
        return DenseFloatSystem(
            np.einsum("ki,mij,lj->mkl", U, self.A, U),
            (self.A @ base + self.a) @ U.T,
            self.eval_point(base),
        )

    def eval_batch(self, pts: np.ndarray) -> np.ndarray:
        quad = np.einsum("ni,mij,nj->nm", pts, self.A, pts)
        return quad + 2.0 * pts @ self.a.T + self.alpha

    def max_batch(self, pts: np.ndarray) -> np.ndarray:
        return self.eval_batch(pts).max(axis=1, initial=-np.inf)

    def eval_point(self, x: np.ndarray) -> np.ndarray:
        return self.eval_batch(x[None, :])[0]

    def gradients(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * (self.A @ x + self.a)

    def ray_exit(self, x0: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Smallest t > 0 per ray at which max_j f_j(x0 + t d) reaches 0.

        Along a ray f_j is qa t^2 + 2 qb t + qc; its exit is the larger root
        in cancellation-free form.  Recession rays (exit >= GROWTH_LIMIT) get
        inf.  Hits that still evaluate infeasible are pulled back by relative
        steps doubling from 2^-52 until max_j f_j <= 0; past 2^-BACKOFF_FLOOR
        they get inf too.
        """
        qa = np.einsum("ri,mij,rj->rm", dirs, self.A, dirs)
        qb = dirs @ (self.A @ x0 + self.a).T
        qc = self.eval_point(x0)
        root = np.sqrt(np.maximum(qb * qb - qa * qc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(qb > 0, -qc / (qb + root), (root - qb) / qa)
        t = np.fmin.reduce(t, axis=1, initial=np.inf)
        t[t >= GROWTH_LIMIT] = np.inf
        pending = np.flatnonzero(np.isfinite(t))
        for shift_bits in range(52, BACKOFF_FLOOR, -1):
            pts = x0 + t[pending, None] * dirs[pending]
            pending = pending[self.max_batch(pts) > 0.0]
            if not len(pending):
                break
            t[pending] *= 1.0 - 2.0 ** -shift_bits
        t[pending] = np.inf
        return t


def dense_gauss_newton_batch(
    fs: DenseFloatSystem, rows: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Gauss-Newton toward f_j(x) = 0 for all j in rows[i], from starts[i],
    for every candidate i in one batch.

    rows is a K x k integer array and starts is K x n.  Each step is the
    minimum-norm least-squares step, through an SVD pseudo-inverse with
    the lstsq cutoff max(k, n) * eps.  A candidate converges once every
    |f_j| <= NEWTON_TOL; it fails when x turns non-finite or its norm passes
    1e12, or when NEWTON_MAX_ITER steps do not converge.  Returns one row
    per candidate: its solution, or NaN where it failed.
    """
    x = np.array(starts, dtype=float)
    out = np.full_like(x, np.nan)
    live = np.arange(len(x))
    rcond = max(rows.shape[1], fs.n) * np.finfo(float).eps
    for _ in range(NEWTON_MAX_ITER):
        if not len(live):
            break
        xl, r = x[live], rows[live]
        # A_j x for every constraint, then the candidate's own rows: a
        # gather of fs.A[r] would hold K * k copies of an n x n matrix.
        ax = np.tensordot(xl, fs.A, axes=(1, 2))[np.arange(len(live))[:, None], r]
        half_grad = ax + fs.a[r]
        f = np.einsum("kri,ki->kr", half_grad + fs.a[r], xl) + fs.alpha[r]
        done = np.abs(f).max(axis=1) <= NEWTON_TOL
        out[live[done]] = xl[done]
        step = np.linalg.pinv(2.0 * half_grad[~done], rcond=rcond) @ f[~done, :, None]
        live, xl = live[~done], xl[~done] - step[:, :, 0]
        ok = np.linalg.norm(xl, axis=1) <= 1e12  # False on non-finite rows
        live = live[ok]
        x[live] = xl[ok]
    return out


# ---------------------------------------------------------------------------
# Seeded systems; the origin is strictly inside each of them


def _gram(b, n):
    return [[sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]


@st.composite
def constraints(draw, n):
    """One constraint on R^n with f(0) < 0: a PSD Gram matrix with zero
    rows, a halfspace or a constant (the last two have no nonzero entry)."""
    alpha = -draw(st.integers(1, 30)) / draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["gram", "gram", "halfspace", "constant"]))
    a = [0] * n
    rows = [[0] * n for _ in range(n)]
    if kind != "constant":
        a = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    if kind == "halfspace" and not any(a):
        a[draw(st.integers(0, n - 1))] = 1
    if kind == "gram":
        b = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
             for _ in range(draw(st.integers(0, n + 1)))]
        for row in b:
            for k in draw(st.sets(st.integers(0, n - 1))):
                row[k] = 0
        rows = _gram(b, n)
    return ConvexQuadratic(A=rows, a=a, alpha=alpha)


@st.composite
def free_systems(draw, max_dim=6):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, 5))
    return QuadraticSystem(dim=n, constraints=[draw(constraints(n)) for _ in range(m)])


@st.composite
def templates(draw):
    """realize() of a random signature, coordinates permuted."""
    top = draw(st.integers(1, 7))
    sig = Signature(tuple(sorted({0, top} | draw(st.sets(st.integers(0, top))))))
    system = realize(sig).system
    perm = draw(st.permutations(range(system.dim)))
    return QuadraticSystem(dim=system.dim, constraints=[
        ConvexQuadratic(
            A={perm[i]: {perm[j]: e for j, e in row.items()} for i, row in q.A.items()},
            a=[q.a[perm.index(i)] for i in range(system.dim)],
            alpha=q.alpha,
        )
        for q in system.constraints
    ])


def systems():
    return st.one_of(
        free_systems(),
        templates(),
        st.builds(direct_sum, templates(), free_systems(max_dim=4)),
    )


def _pair(system):
    return _FloatSystem.from_system(system), DenseFloatSystem.from_system(system)


def _close(actual, expected, scale=1.0):
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# Kernels


@SETTINGS
@given(systems(), st.integers(0, 2**16))
def test_evaluation_matches_dense_reference(system, seed):
    fs, ref = _pair(system)
    pts = np.random.default_rng(seed).uniform(-3, 3, (40, system.dim))
    pts[::3, ::2] = 0.0
    scale = 1.0 + np.abs(ref.A).max(initial=0) * 9 * system.dim**2
    _close(fs.eval_batch(pts).T, ref.eval_batch(pts), scale)
    _close(fs.eval_batch(pts).max(axis=0, initial=-np.inf), ref.max_batch(pts), scale)
    _close(fs.eval_point(pts[1]), ref.eval_point(pts[1]), scale)
    _close(fs.gradients(pts[1]), ref.gradients(pts[1]), scale)
    for k in range(fs.m):
        np.testing.assert_array_equal(fs.matrix(k), ref.A[k])
    # each constraint's entries and linear terms are summed in one order,
    # so a row's forms and values are the same alone as in its batch
    np.testing.assert_array_equal(fs.quad_forms(pts[5:6]), fs.quad_forms(pts)[:, 5:6])
    np.testing.assert_array_equal(fs.eval_point(pts[5]), fs.eval_batch(pts)[:, 5])
    np.testing.assert_array_equal(fs.eval_batch(pts[3:17]), fs.eval_batch(pts)[:, 3:17])


@SETTINGS
@given(systems(), st.integers(0, 2**16))
def test_ray_exit_matches_dense_reference(system, seed):
    fs, ref = _pair(system)
    x0 = np.zeros(system.dim)
    dirs = _sampled_directions(system.dim, 64, seed)
    (t, _, _), t_ref = fs.ray_exit(x0, dirs), ref.ray_exit(x0, dirs)
    np.testing.assert_array_equal(np.isinf(t), np.isinf(t_ref))
    finite = np.isfinite(t)
    np.testing.assert_allclose(t[finite], t_ref[finite], rtol=1e-9)
    # ray_exit pulls each hit back until it evaluates feasible, and a
    # point's values do not depend on its batch
    assert (fs.eval_batch(x0 + t[finite, None] * dirs[finite]) <= 0.0).all()


@SETTINGS
@given(systems(), st.integers(0, 2**16), st.data())
def test_restrict_matches_dense_reference(system, seed, data):
    fs, ref = _pair(system)
    n = system.dim
    k = data.draw(st.integers(1, min(n, 3)))
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, k)))[0].T
    if data.draw(st.booleans()):  # coordinate planes, as slices often are
        U = np.eye(n)[rng.permutation(n)[:k]]
    base = rng.uniform(-1, 1, n)
    plane, plane_ref = fs.restrict(base, U), ref.restrict(base, U)
    assert (plane.m, plane.n) == (plane_ref.m, plane_ref.n) == (fs.m, k)
    scale = 1.0 + np.abs(ref.A).max(initial=0) * n * n
    for j in range(fs.m):
        _close(plane.matrix(j), plane_ref.A[j], scale)
    _close(plane.a, plane_ref.a, scale)
    _close(plane.alpha, plane_ref.alpha, scale)
    pts = rng.uniform(-2, 2, (20, k))
    _close(plane.eval_batch(pts).T, plane_ref.eval_batch(pts), 10 * scale)


@SETTINGS
@given(systems(), st.integers(0, 2**16), st.data())
def test_gauss_newton_batch_matches_dense_reference(system, seed, data):
    fs, ref = _pair(system)
    size = data.draw(st.integers(1, min(fs.m, 3)))
    rows = np.array(list(itertools.combinations(range(fs.m), size))[:30])
    starts = np.random.default_rng(seed).standard_normal((len(rows), fs.n))
    sols = _gauss_newton_batch(fs, rows, starts)
    sols_ref = dense_gauss_newton_batch(ref, rows, starts)
    np.testing.assert_array_equal(np.isnan(sols), np.isnan(sols_ref))
    np.testing.assert_allclose(sols, sols_ref, rtol=0, atol=1e-9)
    for sol, r in zip(sols, rows):
        if not np.isnan(sol).any():
            assert np.abs(fs.eval_point(sol)[r]).max() <= NEWTON_TOL


def test_systems_without_entries_or_constraints():
    halfspaces = QuadraticSystem(dim=3, constraints=[
        ConvexQuadratic(A=[[0] * 3] * 3, a=[1, 0, -2], alpha=-1),
        ConvexQuadratic(A=[[0] * 3] * 3, a=[0, 0, 0], alpha=-3),
    ])
    fs, ref = _pair(halfspaces)
    assert len(fs.V) == 0
    pts = np.random.default_rng(0).standard_normal((7, 3))
    np.testing.assert_array_equal(fs.eval_batch(pts).T, ref.eval_batch(pts))
    np.testing.assert_array_equal(fs.gradients(pts[0]), ref.gradients(pts[0]))
    dirs = _sampled_directions(3, 16, 1)
    t, _, _ = fs.ray_exit(np.zeros(3), dirs)
    np.testing.assert_array_equal(t, ref.ray_exit(np.zeros(3), dirs))
    plane = fs.restrict(pts[0], np.eye(3)[:2])
    assert len(plane.V) == 0 and plane.a.shape == (2, 2)
    empty = _FloatSystem.from_system(QuadraticSystem(dim=2, constraints=()))
    assert empty.eval_batch(pts[:, :2]).shape == (0, 7)
    t, pts, vals = empty.ray_exit(np.zeros(2), dirs[:, :2])
    assert np.isinf(t).all() and vals.shape == (0, 16)
    assert (pts == 0.0).all() and pts.shape == (16, 2)


# ---------------------------------------------------------------------------
# Constraint-major batches against the row-major reference


@st.composite
def entryless_systems(draw):
    """Halfspaces and constants only: no matrix entry, many recession rays."""
    n = draw(st.integers(1, 4))
    kind = st.sampled_from(["halfspace", "constant"])
    cons = []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        if draw(kind) == "constant":
            a = [0] * n
        cons.append(ConvexQuadratic(A=[[0] * n] * n, a=a, alpha=-draw(st.integers(1, 9))))
    return QuadraticSystem(dim=n, constraints=cons)


@SETTINGS
@given(st.one_of(systems(), entryless_systems()), st.integers(0, 2**16))
def test_constraint_major_kernel_matches_row_major_reference(system, seed):
    fs = _FloatSystem.from_system(system)
    ref = reference_row_major.RowMajorFloatSystem.from_system(system)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3, 3, (40, system.dim))
    np.testing.assert_array_equal(fs.quad_forms(pts), ref.quad_forms(pts).T)
    np.testing.assert_array_equal(fs.eval_batch(pts), ref.eval_batch(pts).T)
    np.testing.assert_array_equal(fs.eval_point(pts[3]), ref.eval_point(pts[3]))

    x0 = np.zeros(system.dim)
    dirs = _sampled_directions(system.dim, 64, seed)
    if system.dim > 1:  # a recession ray of every halfspace and constant
        dirs[:2, 0], dirs[:2, 1:] = (-1, 1), 0.0
    t, pts, vals = fs.ray_exit(x0, dirs)
    np.testing.assert_array_equal(t, ref.ray_exit(x0, dirs))
    hit = np.isfinite(t)
    ref_pts, ref_hit, ref_vals = reference_row_major.batch_boundary(ref, x0, dirs)
    np.testing.assert_array_equal(pts, ref_pts)
    np.testing.assert_array_equal(hit, ref_hit)
    np.testing.assert_array_equal(vals, ref_vals.T)

    ctx = _DimContext(system, [classify(q) for q in system.constraints])
    active, dims, groups = ctx.measure_batch(pts[hit], vals[:, hit])
    ref_active, ref_dims = reference_row_major.measure_batch(ctx, ref, ref_pts[hit], ref_vals[hit])
    np.testing.assert_array_equal(active, ref_active.T)
    np.testing.assert_array_equal(dims, ref_dims)
    ref_rows, ref_groups = reference_row_major.group_rows(ref_active)
    assert [act for act, _ in groups] == [tuple(np.flatnonzero(r)) for r in ref_rows]
    for (_, members), ref_members in zip(groups, ref_groups):
        np.testing.assert_array_equal(members, ref_members)


@SETTINGS
@given(st.one_of(systems(), entryless_systems()), st.integers(0, 2**16),
       st.sampled_from([BACKOFF_FLOOR, 52]))
def test_ray_exit_returns_the_points_it_checked(system, seed, floor):
    # A floor of 52 allows no pull-back step, so every hit whose first check
    # evaluates infeasible fails its pull-back.
    fs = _FloatSystem.from_system(system)
    x0 = np.zeros(system.dim)
    dirs = _sampled_directions(system.dim, 64, seed)
    if system.dim > 1:  # a recession ray of every halfspace and constant
        dirs[:2, 0], dirs[:2, 1:] = (-1, 1), 0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("facetforge.verifier.BACKOFF_FLOOR", floor)
        t, pts, vals = fs.ray_exit(x0, dirs)
    assert pts.shape == dirs.shape and vals.shape == (fs.m, len(dirs))
    for i in range(len(dirs)):
        np.testing.assert_array_equal(vals[:, i], fs.eval_batch(pts[i : i + 1])[:, 0])
    hit = np.isfinite(t)
    assert (vals[:, hit] <= 0.0).all()
    np.testing.assert_array_equal(pts[hit], x0 + t[hit, None] * dirs[hit])
    # a recession ray or a failed pull-back: x0 and f(x0)
    assert (pts[~hit] == x0).all()
    assert (vals[:, ~hit] == fs.eval_point(x0)[:, None]).all()


def test_ray_exit_gives_a_failed_pull_back_x0(monkeypatch):
    # Rays that leave the unit ball from an off-center point: their exits
    # are all finite, and some fail their first check by rounding.
    ball = ConvexQuadratic(A={i: {i: 1} for i in range(3)}, a=(0, 0, 0), alpha=-1)
    fs = _FloatSystem.from_system(QuadraticSystem(dim=3, constraints=[ball]))
    x0 = np.full(3, 0.125)
    dirs = _sampled_directions(3, 64, 5)
    pulled, _, _ = fs.ray_exit(x0, dirs)
    monkeypatch.setattr("facetforge.verifier.BACKOFF_FLOOR", 52)
    t, pts, vals = fs.ray_exit(x0, dirs)
    failed = np.isfinite(pulled) & np.isinf(t)
    assert np.isfinite(pulled).all() and failed.any()
    assert (pts[failed] == x0).all() and (vals[:, failed] == fs.eval_point(x0)[:, None]).all()
    np.testing.assert_array_equal(pts[~failed], x0 + t[~failed, None] * dirs[~failed])


@SETTINGS
@given(st.one_of(systems(), entryless_systems()), st.data())
def test_slice_rows_are_ray_exit_points(system, data):
    n = system.dim
    if n < 2:
        return
    U = np.eye(n)[data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))]
    spec = SliceSpec(base_point=(0.0,) * n, u=tuple(U[0]), v=tuple(U[1]),
                     resolution=data.draw(st.integers(8, 40)),
                     extent=data.draw(st.sampled_from([0.5, 4.0, 16.0])))
    plane = _FloatSystem.from_system(system).restrict(np.zeros(n), U)
    thetas = 2.0 * np.pi * np.arange(spec.resolution) / spec.resolution
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    t, pts, _ = plane.ray_exit(_float_interior(plane), dirs)
    keep = t <= spec.extent
    if not keep.any():
        with pytest.raises(EmptySlice):
            slice_boundary(system, spec)
        return
    got_thetas, st_rows, points = slice_boundary(system, spec)
    np.testing.assert_array_equal(got_thetas, thetas[keep])
    np.testing.assert_array_equal(np.array(st_rows), pts[keep])
    np.testing.assert_array_equal(np.array(points), pts[keep] @ U)


@SETTINGS
@given(st.one_of(systems(), entryless_systems()), st.integers(0, 2**16), st.integers(0, 300))
def test_quad_forms_is_the_same_at_every_entry_budget(system, seed, rows):
    fs = _FloatSystem.from_system(system)
    pts = np.random.default_rng(seed).uniform(-3, 3, (rows, system.dim))
    largest = int(np.diff(fs.bounds).max(initial=0))
    budgets = [1, max(1, largest - 1), 3 * max(fs.m, fs.n), rows * max(len(fs.V), fs.m * fs.n) + 1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("facetforge.verifier.ENTRY_BUDGET", 2**62)
        forms, linear = fs.quad_forms(pts), fs.linear_terms(pts)
        for budget in budgets:
            patch.setattr("facetforge.verifier.ENTRY_BUDGET", budget)
            np.testing.assert_array_equal(fs.quad_forms(pts), forms)
            np.testing.assert_array_equal(fs.linear_terms(pts), linear)


# ---------------------------------------------------------------------------
# Active-set grouping


def _unique_groups(active):
    rows, inverse = np.unique(active, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    return rows, [np.flatnonzero(inverse == g) for g in range(len(rows))]


@pytest.mark.parametrize("m", [1, 8, 63, 64, 65, 130])
def test_group_rows_matches_np_unique(m):
    rng = np.random.default_rng(m)
    batches = [np.zeros((0, m), bool), rng.random((1, m)) < 0.5, np.zeros((1, m), bool)]
    for density in (0.02, 0.2, 0.5):
        active = rng.random((300, m)) < density
        active[::7] = False  # all-False rows
        active[1::11] = active[2]  # repeated rows
        active[3::13, -1] = True  # rows that differ in the last column only
        batches.append(active)
    for active in batches:
        groups = _group_columns(active.T)
        ref_rows, ref_groups = _unique_groups(active)
        assert [s for s, _ in groups] == [tuple(np.flatnonzero(r)) for r in ref_rows]
        assert len(groups) == len(ref_groups)
        for (_, members), ref_members in zip(groups, ref_groups):
            np.testing.assert_array_equal(members, ref_members)
