"""The point-major (N x m) batch kernel of the probe path, kept as a reference.

verifier._FloatSystem evaluates a batch of N points constraint-major, as
an m x N array, and ray_exit hands back the points and values of its last
feasibility check.  Before that, the batch methods below returned N x m
arrays and reduced over the constraint axis of each row; batch_boundary
rebuilt every hit point from its exit and evaluated it a second time, and
measure_batch grouped rows with _group_rows.
They are kept here verbatim, apart from the linear term 2 a^T x, which
comes from the same helper as the new kernel's (_FloatSystem.linear_terms),
so that both evaluate a point to the same bits, and the per-constraint sum,
which is now _FloatSystem._forms.sum over the terms of every entry.
"""

import numpy as np

from facetforge.verifier import (
    BACKOFF_FLOOR,
    GROWTH_LIMIT,
    PROBE_EPS,
    TOL_ACTIVE,
    ProbeMismatch,
    _FloatSystem,
)

# The batch chunk, in points, this kernel used; the verifier now sizes its
# batches from ENTRY_BUDGET alone.
PROBE_CHUNK = 2048


class RowMajorFloatSystem(_FloatSystem):
    """_FloatSystem whose batches come back point-major, N x m."""

    def quad_forms(self, pts: np.ndarray) -> np.ndarray:
        """x^T A_j x for every row x of pts and every constraint j."""
        out = np.empty((len(pts), self.m))
        for start in range(0, len(pts), PROBE_CHUNK):
            p = np.ascontiguousarray(pts[start : start + PROBE_CHUNK].T)
            terms = p[self._jI]
            terms *= self._jV
            terms *= p[self._jJ]
            sums = self._forms.sum(terms.__getitem__, p.shape[1])
            out[start : start + PROBE_CHUNK] = sums.T
        return out

    def eval_batch(self, pts: np.ndarray) -> np.ndarray:
        return self.quad_forms(pts) + self.linear_terms(pts).T + self.alpha

    def max_batch(self, pts: np.ndarray) -> np.ndarray:
        return self.eval_batch(pts).max(axis=1, initial=-np.inf)

    def eval_point(self, x: np.ndarray) -> np.ndarray:
        return self.eval_batch(x[None, :])[0]

    def ray_exit(self, x0: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Smallest t > 0 per ray at which max_j f_j(x0 + t d) reaches 0.

        Along a ray f_j is qa t^2 + 2 qb t + qc; its exit is the larger root
        in cancellation-free form.  Recession rays (exit >= GROWTH_LIMIT) get
        inf.  Hits that still evaluate infeasible are pulled back by relative
        steps doubling from 2^-52 until max_j f_j <= 0; past 2^-BACKOFF_FLOOR
        they get inf too.
        """
        qa = self.quad_forms(dirs)
        qb = dirs @ self.half_gradients(x0).T
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


def batch_boundary(fs: RowMajorFloatSystem, x0: np.ndarray, dirs: np.ndarray):
    """Boundary hit per ray from the closed-form exit of fs.ray_exit.

    Returns (points, hit_mask, values); recession rays come back unmasked
    with their point at x0.
    """
    t = fs.ray_exit(x0, dirs)
    hit = np.isfinite(t)
    pts = x0 + np.where(hit, t, 0.0)[:, None] * dirs
    return pts, hit, fs.eval_batch(pts)


def measure_batch(
    ctx, fs: RowMajorFloatSystem, pts: np.ndarray, fvals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """_DimContext.measure_batch with the context's float system replaced
    by fs: (active, dims) at the rows of pts, given fvals = f(pts)."""
    if fvals.size and float(fvals.max()) > TOL_ACTIVE:
        raise ValueError("point is not feasible within tolerance")
    active = fvals >= -TOL_ACTIVE
    dims = np.full(len(pts), ctx.system.dim)
    rows, groups = group_rows(active)
    for row, members in zip(rows, groups):
        if not row.any():
            continue
        try:
            space, basis = ctx.direction_space(tuple(np.flatnonzero(row).tolist()))
        except ProbeMismatch:
            dims[members] = -1
            continue
        dims[members] = space.dim
        if not len(basis):
            continue
        steps = np.concatenate([PROBE_EPS * basis, -PROBE_EPS * basis])
        per = max(1, PROBE_CHUNK // len(steps))
        for start in range(0, len(members), per):
            chunk = members[start : start + per]
            probes = (pts[chunk, None, :] + steps).reshape(-1, pts.shape[1])
            worst = fs.max_batch(probes).reshape(len(chunk), -1).max(axis=1)
            dims[chunk[worst > TOL_ACTIVE]] = -1
    return active, dims


def group_rows(active: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The distinct rows of a boolean matrix and the indices of each one's
    members, in the order of np.unique(active, axis=0).

    Each row is packed into big-endian 64-bit words, column 0 in the top
    bit of the first word, so the word tuples sort as the rows do; one
    lexsort orders them for every column count.
    """
    if not len(active):
        return active, []
    packed = np.packbits(active, axis=1)
    words = np.zeros((len(active), -(-packed.shape[1] // 8) * 8 or 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    keys = words.view(">u8")
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    starts = np.flatnonzero(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)])
    return active[order[starts]], np.split(order, starts[1:])
