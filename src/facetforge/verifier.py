"""Signature verification: exact structural path and numerical probe path.

The exact path decomposes a system into variable-disjoint blocks, matches
each block against the shapes it can certify (a single classified quadratic
or a shared-center ball-and-cylinders template with exact margin checks),
and combines block signatures by integer sumsets plus a shift for free
coordinates.  Every reported dimension carries a rational witness point.

The probe path is probabilistic: it restricts away affine-subspace
constraints exactly, finds an interior point, shoots seeded random rays to
the boundary and reads the minimal face dimension at each hit off the
active set.  It then refines with targeted Gauss-Newton solves on single
constraints and small constraint tuples, so that faces no ray reaches
(joint activity across blocks, constraints that touch the set only where
rays almost never land) are found too; each round solves one start of
every unresolved tuple in one vectorized batch.  Constraints never active
at a hit or a refined point are named in a warning.  Active-set direction
spaces are computed twice (classification table vs. stacked null space)
and every claimed face direction is probed at +-eps in floating point;
disagreement surfaces as ProbeMismatch instead of being resolved
silently.

Ray exits are closed-form quadratic roots, pulled back until the hit point
evaluates feasible.  Tolerances: activity and slack 1e-8, face probe step
1e-6, Newton residual 1e-12.  The separation between activity detection and
the probe step keeps quadratic curvature from masquerading as flatness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .constructor import ConstructionParams, boundary_disjointness_margins
from .exact_linalg import (
    RVector,
    Subspace,
    dot,
    intersect_subspaces,
    mat_vec,
    null_space_basis,
    rvector,
    unit_vector,
    vec_add,
    vec_scale,
    zero_vector,
)
from .quadratics import (
    ConvexQuadratic,
    QuadraticClass,
    QuadraticKind,
    QuadraticSystem,
    classify,
    evaluate,
)
from .signatures import Signature, minkowski_sum, shift

TOL_ACTIVE = 1e-8
TOL_SLACK = 1e-8
PROBE_EPS = 1e-6
NEWTON_TOL = 1e-12
GROWTH_LIMIT = 2.0**45
BACKOFF_FLOOR = 20
DEFAULT_SEED = 42
NEWTON_MAX_ITER = 50
DEFAULT_TUPLE_CAP = 3
DEFAULT_SAMPLES = 2000

_KIND = QuadraticKind


class InfeasibleSystem(ValueError):
    """The solution set is empty; no signature exists."""


class UnrecognizedStructure(ValueError):
    """The exact path cannot certify this block; try the probe path."""


class NoInteriorFound(RuntimeError):
    """Phase-I optimization failed to produce a strictly feasible point."""


class ProbeMismatch(RuntimeError):
    """Exact and probed face data disagree: degenerate active set or
    tolerance failure."""


@dataclass(frozen=True)
class Confidence:
    kind: str
    samples: int | None = None
    tolerance: float | None = None


@dataclass(frozen=True)
class VerificationReport:
    signature: Signature
    method: str
    confidence: Confidence
    witnesses: dict[int, tuple]
    warnings: tuple[str, ...] = field(default=())


@dataclass(frozen=True)
class DisjointnessCertificate:
    """Exact margins keeping distinct cylinder boundaries apart in the ball."""

    excess: Fraction
    separation: Fraction
    radius_gap: Fraction

    @property
    def holds(self) -> bool:
        return self.excess > 0 and self.separation > 0 and self.radius_gap > 0


def disjointness_certificate(params: ConstructionParams) -> DisjointnessCertificate:
    margins = boundary_disjointness_margins(params.c, params.r)
    return DisjointnessCertificate(
        excess=margins["excess"],
        separation=margins["separation"],
        radius_gap=margins["radius_gap"],
    )


# ---------------------------------------------------------------------------
# Block decomposition


@dataclass(frozen=True)
class Block:
    indices: tuple[int, ...]
    system: QuadraticSystem


@dataclass(frozen=True)
class BlockSplit:
    blocks: tuple[Block, ...]
    free_indices: tuple[int, ...]
    constant_constraints: tuple[ConvexQuadratic, ...]


def _support(q: ConvexQuadratic) -> set[int]:
    sup = {i for i, e in enumerate(q.a) if e != 0}
    for i, row in enumerate(q.A):
        if any(e != 0 for e in row):
            sup.add(i)
    return sup


def _restrict_constraint(q: ConvexQuadratic, idx: tuple[int, ...]) -> ConvexQuadratic:
    rows = tuple(tuple(q.A[i][j] for j in idx) for i in idx)
    return ConvexQuadratic(A=rows, a=tuple(q.a[i] for i in idx), alpha=q.alpha)


def blocks(system: QuadraticSystem) -> BlockSplit:
    """Split along the variable-interaction graph.

    Variables co-occurring in some constraint's support land in one block;
    variables in no support are free; constraints with empty support come
    back separately (they are constants).
    """
    parent = list(range(system.dim))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int):
        parent[find(i)] = find(j)

    supports = []
    constants = []
    for q in system.constraints:
        sup = sorted(_support(q))
        if not sup:
            constants.append(q)
            continue
        supports.append((q, sup))
        for i in sup[1:]:
            union(sup[0], i)

    groups: dict[int, list[int]] = {}
    used = set()
    for _, sup in supports:
        used.update(sup)
    for i in sorted(used):
        groups.setdefault(find(i), []).append(i)

    out = []
    for root in sorted(groups, key=lambda r: groups[r][0]):
        idx = tuple(groups[root])
        constr = tuple(
            _restrict_constraint(q, idx)
            for q, sup in supports
            if find(sup[0]) == root
        )
        witness = None
        if system.interior_witness is not None:
            witness = tuple(system.interior_witness[i] for i in idx)
        out.append(
            Block(
                indices=idx,
                system=QuadraticSystem(
                    dim=len(idx), constraints=constr, interior_witness=witness
                ),
            )
        )
    free = tuple(i for i in range(system.dim) if i not in used)
    return BlockSplit(
        blocks=tuple(out),
        free_indices=free,
        constant_constraints=tuple(constants),
    )


# ---------------------------------------------------------------------------
# Exact path


def _fraction_sqrt(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def _rational_sqrt_below(target_sq: Fraction, scale: float) -> Fraction:
    """Rational t with t^2 slightly below target_sq (gap within tolerance)."""
    exact = _fraction_sqrt(target_sq)
    if exact is not None:
        return exact
    tf = math.sqrt(float(target_sq))
    for shift_bits in (48, 64, 96, 128):
        prec = 1 << shift_bits
        t = Fraction(math.floor(tf * prec), prec)
        while t * t >= target_sq:
            t -= Fraction(1, prec)
        gap = float(target_sq - t * t)
        if gap * scale <= 0.01 * TOL_ACTIVE:
            return t
    return t


def _boundary_point_along(
    q: ConvexQuadratic, cls: QuadraticClass, direction: RVector
) -> RVector:
    """Point of {f = 0} on the ray from the minimizer along direction.

    Exact when the crossing parameter is a rational square root, otherwise a
    rational point strictly inside with residual far below the activity
    tolerance, so the constraint still registers active.
    """
    assert cls.minimizer is not None and cls.min_value is not None
    curod = dot(direction, mat_vec(q.A, direction))
    assert curod > 0
    ratio = -cls.min_value / curod
    t = _rational_sqrt_below(ratio, float(curod))
    return vec_add(cls.minimizer, vec_scale(t, direction))


def _cylinder_ball_direction(q: ConvexQuadratic) -> RVector:
    # Some diagonal entry of a nonzero PSD matrix is positive.
    for i, row in enumerate(q.A):
        if row[i] > 0:
            return unit_vector(i, q.dim)
    raise AssertionError("nonzero PSD matrix with zero diagonal")


def _single_constraint_block(
    q: ConvexQuadratic,
) -> tuple[Signature, dict[int, RVector]]:
    n = q.dim
    cls = classify(q)
    kind = cls.kind
    if kind is _KIND.EMPTY:
        raise InfeasibleSystem("a constraint admits no solution")
    if kind is _KIND.FULL_SPACE:
        return cls.signature, {n: zero_vector(n)}
    if kind in (_KIND.SINGLETON, _KIND.AFFINE_SUBSPACE):
        return cls.signature, {cls.nullity: cls.minimizer}
    if kind is _KIND.HALF_SPACE:
        norm_sq = dot(q.a, q.a)
        boundary = vec_scale(-q.alpha / (2 * norm_sq), q.a)
        interior = vec_scale((-q.alpha - 1) / (2 * norm_sq), q.a)
        return cls.signature, {n - 1: boundary, n: interior}
    if kind is _KIND.CYLINDER_BALL:
        direction = _cylinder_ball_direction(q)
        boundary = _boundary_point_along(q, cls, direction)
        return cls.signature, {cls.nullity: boundary, n: cls.minimizer}
    assert kind is _KIND.PARABOLOID_CYLINDER
    a_null = cls.null_component
    norm_sq = dot(a_null, a_null)
    boundary = vec_scale(-q.alpha / (2 * norm_sq), a_null)
    interior = vec_add(boundary, vec_scale(Fraction(-1, 1) / (2 * norm_sq), a_null))
    return cls.signature, {cls.nullity - 1: boundary, n: interior}


def _parse_template_cylinder(q: ConvexQuadratic):
    """(index, c, r_squared) when q matches the centered cylinder shape."""
    n = q.dim
    diag = [q.A[i][i] for i in range(n)]
    if any(q.A[i][j] != 0 for i in range(n) for j in range(n) if i != j):
        return None
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


def _is_unit_ball(q: ConvexQuadratic) -> bool:
    n = q.dim
    return (
        q.alpha == -1
        and all(e == 0 for e in q.a)
        and all(
            q.A[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)
        )
    )


def _match_ball_cylinder_template(system: QuadraticSystem):
    """Signature and witnesses for a shared-center ball-and-cylinders block.

    Requires exactly one unit ball, centered cylinders with one shared
    (c, r^2) pair whose margins prove pairwise boundary disjointness inside
    the ball, and pairwise distinct cylinder indices.  Returns None when the
    block does not match.
    """
    d = system.dim
    balls = [q for q in system.constraints if _is_unit_ball(q)]
    if len(balls) != 1:
        return None
    parsed = []
    for q in system.constraints:
        if _is_unit_ball(q):
            continue
        p = _parse_template_cylinder(q)
        if p is None:
            return None
        parsed.append(p)
    if not parsed:
        return None
    indices = [p[0] for p in parsed]
    if len(set(indices)) != len(indices):
        return None
    c = parsed[0][1]
    r_sq = parsed[0][2]
    if any(p[1] != c or p[2] != r_sq for p in parsed):
        return None
    excess = r_sq - c * c - 1
    separation = excess * excess - 2 * c * c
    radius_gap_sq = (1 + c) * (1 + c) - r_sq
    if excess <= 0 or separation <= 0 or radius_gap_sq <= 0:
        return None
    sig = Signature(tuple([0, d] + indices))
    witnesses: dict[int, RVector] = {d: zero_vector(d), 0: unit_vector(0, d)}
    # Touching point of each cylinder: pivot coordinate just at r - c, which
    # stays strictly inside the ball and the other cylinders.
    t = _rational_sqrt_below(r_sq, 1.0)
    for idx in indices:
        witnesses[idx] = vec_scale(t - c, unit_vector(idx, d))
    return sig, witnesses


def exact_signature(system: QuadraticSystem) -> VerificationReport:
    """Certified signature via block split, classification and templates.

    Raises InfeasibleSystem when the set is provably empty and
    UnrecognizedStructure when a block is neither a single quadratic nor a
    ball-and-cylinders template (the probe path handles those).
    """
    split = blocks(system)
    for q in split.constant_constraints:
        if q.alpha > 0:
            raise InfeasibleSystem("a constant constraint is positive")
    block_data: list[tuple[Signature, dict[int, RVector]]] = []
    for blk in split.blocks:
        if len(blk.system.constraints) == 1:
            block_data.append(_single_constraint_block(blk.system.constraints[0]))
            continue
        matched = _match_ball_cylinder_template(blk.system)
        if matched is None:
            raise UnrecognizedStructure(
                f"block on coordinates {blk.indices} is neither a single "
                "quadratic nor a shared-center ball-and-cylinders template; "
                "use the probe path"
            )
        block_data.append(matched)

    free = len(split.free_indices)
    total_sig = Signature.of(0)
    for sig, _ in block_data:
        total_sig = minkowski_sum(total_sig, sig)
    total_sig = shift(total_sig, free)

    # One witness per reported dimension: pick a per-block decomposition of
    # the dimension and scatter block witnesses into place.
    reachable: dict[int, tuple[int, ...]] = {0: ()}
    for sig, _ in block_data:
        nxt: dict[int, tuple[int, ...]] = {}
        for total, choice in sorted(reachable.items()):
            for d in sig:
                if total + d not in nxt:
                    nxt[total + d] = choice + (d,)
        reachable = nxt

    witnesses: dict[int, tuple] = {}
    for total, choice in reachable.items():
        x = list(zero_vector(system.dim))
        for blk, (sig, wmap), d in zip(split.blocks, block_data, choice):
            for local, value in enumerate(wmap[d]):
                x[blk.indices[local]] = value
        point = tuple(x)
        for q in system.constraints:
            assert evaluate(q, point) <= 0
        witnesses[total + free] = point

    return VerificationReport(
        signature=total_sig,
        method="exact",
        confidence=Confidence(kind="exact"),
        witnesses=witnesses,
        warnings=(),
    )


# ---------------------------------------------------------------------------
# Float machinery shared by the probe path


class _FloatSystem:
    """Float copy of a system: f_j(x) = x^T A_j x + 2 a_j^T x + alpha_j."""

    def __init__(self, A: np.ndarray, a: np.ndarray, alpha: np.ndarray):
        self.A, self.a, self.alpha = A, a, alpha
        self.m, self.n = a.shape

    @classmethod
    def from_system(cls, system: QuadraticSystem) -> "_FloatSystem":
        n, m = system.dim, len(system.constraints)
        A = np.zeros((m, n, n))
        a = np.zeros((m, n))
        alpha = np.zeros(m)
        for k, q in enumerate(system.constraints):
            A[k] = [[float(e) for e in row] for row in q.A]
            a[k] = [float(e) for e in q.a]
            alpha[k] = float(q.alpha)
        return cls(A, a, alpha)

    def restrict(self, base: np.ndarray, U: np.ndarray) -> "_FloatSystem":
        """The system on the affine space base + U^T p, in coordinates p."""
        return _FloatSystem(
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


def interior_point(system: QuadraticSystem) -> np.ndarray:
    """Strictly feasible point: the system's witness, else _float_interior."""
    if system.interior_witness is not None:
        return np.array([float(e) for e in system.interior_witness])
    return _float_interior(_FloatSystem.from_system(system))


def _float_interior(fs: _FloatSystem) -> np.ndarray:
    """Strictly feasible point by phase-I plus barrier polish.

    Phase I runs subgradient descent with diminishing steps on max_j f_j;
    once strictly feasible, a few damped Newton steps on the log barrier
    push the point toward the analytic center.  Raises NoInteriorFound when
    the subgradient phase stalls at a nonnegative value.
    """
    if fs.m == 0:
        return np.zeros(fs.n)
    if fs.n == 0:
        if float(fs.alpha.max()) > 0:
            raise NoInteriorFound("infeasible zero-dimensional system")
        return np.zeros(0)

    # Warm starts: each constraint's own unconstrained minimizer (by float
    # least squares) and their mean often land strictly inside already.
    # Among feasible candidates prefer moderate depth over the deepest
    # point: boundary hits from a very deep start lose value precision.
    candidates = [np.zeros(fs.n)]
    for k in range(fs.m):
        sol, *_ = np.linalg.lstsq(fs.A[k], -fs.a[k], rcond=None)
        if np.isfinite(sol).all():
            candidates.append(sol)
    if len(candidates) > 2:
        candidates.append(np.mean(candidates[1:], axis=0))

    def depth_key(c: np.ndarray) -> float:
        val = float(fs.eval_point(c).max())
        return abs(math.log10(-val) - 0.0) if val < 0 else math.inf

    feasible = [c for c in candidates if float(fs.eval_point(c).max()) < 0]
    if feasible:
        return min(feasible, key=depth_key)
    x = min(candidates, key=lambda c: float(fs.eval_point(c).max()))
    best_x, best_val = x.copy(), float(fs.eval_point(x).max())
    for it in range(5000):
        vals = fs.eval_point(x)
        j = int(vals.argmax())
        if vals[j] < 0:
            best_x, best_val = x.copy(), float(vals[j])
            break
        g = fs.gradients(x)[j]
        norm = float(np.linalg.norm(g))
        if norm < 1e-15:
            break
        x = x - (2.0 / math.sqrt(it + 1.0)) * g / norm
        val = float(fs.eval_point(x).max())
        if val < best_val:
            best_x, best_val = x.copy(), val
    if best_val >= 0:
        raise NoInteriorFound(
            f"phase-I subgradient stalled at max residual {best_val:.3e}"
        )

    x = best_x
    for _ in range(25):
        vals = fs.eval_point(x)
        if float(vals.max()) <= -1e-2:
            break  # comfortably interior; deeper hurts boundary precision
        slack = -vals
        grads = fs.gradients(x)
        grad = (grads / slack[:, None]).sum(axis=0)
        hess = np.einsum("m,mij->ij", 2.0 / slack, fs.A)
        hess += np.einsum("mi,mj->ij", grads / slack[:, None], grads / slack[:, None])
        try:
            step = np.linalg.solve(hess + 1e-12 * np.eye(fs.n), -grad)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        phi = -np.log(slack).sum()
        while t > 1e-10:
            cand = x + t * step
            cvals = fs.eval_point(cand)
            if cvals.max() < 0 and -np.log(-cvals).sum() < phi:
                break
            t *= 0.5
        else:
            break
        x = x + t * step
        if np.linalg.norm(t * step) < 1e-12:
            break
    return x


def _batch_boundary(fs: _FloatSystem, x0: np.ndarray, dirs: np.ndarray):
    """Boundary hit per ray from the closed-form exit of fs.ray_exit.

    Returns (points, hit_mask, values); recession rays come back unmasked
    with their point at x0.
    """
    t = fs.ray_exit(x0, dirs)
    hit = np.isfinite(t)
    pts = x0 + np.where(hit, t, 0.0)[:, None] * dirs
    return pts, hit, fs.eval_batch(pts)


def boundary_sample(
    system: QuadraticSystem, x0, direction
) -> np.ndarray | None:
    """Boundary point on the ray x0 + t*direction, or None for a recession
    ray that never leaves the set."""
    fs = _FloatSystem.from_system(system)
    x0 = np.asarray(x0, dtype=float)
    d = np.asarray(direction, dtype=float)
    if float(fs.eval_point(x0).max(initial=-np.inf)) > 0:
        raise ValueError("ray origin is not feasible")
    pts, ok, _ = _batch_boundary(fs, x0, d[None, :])
    return pts[0] if bool(ok[0]) else None


# ---------------------------------------------------------------------------
# Minimal face dimension at a point


class _DimContext:
    """Per-system caches for active-set direction spaces.

    classes[j] is classify(system.constraints[j]), computed by the caller.
    """

    def __init__(self, system: QuadraticSystem, classes: list[QuadraticClass]):
        self.system = system
        self.fs = _FloatSystem.from_system(system)
        self.classes = classes
        self._spaces: dict[tuple[int, ...], tuple[Subspace, np.ndarray]] = {}

    def direction_space(self, active: tuple[int, ...]) -> tuple[Subspace, np.ndarray]:
        """Face direction space for an active set, checked two ways, with
        its basis as unit float rows."""
        if active in self._spaces:
            return self._spaces[active]
        n = self.system.dim
        spaces = []
        stacked: list[RVector] = []
        for j in active:
            cls = self.classes[j]
            q = self.system.constraints[j]
            if cls.kind is _KIND.FULL_SPACE:
                continue
            if cls.kind is _KIND.EMPTY:
                raise InfeasibleSystem("active constraint admits no solution")
            if cls.kind in (_KIND.AFFINE_SUBSPACE, _KIND.SINGLETON):
                spaces.append(null_space_basis(q.A))
            else:
                spaces.append(cls.face_directions)
            stacked.extend(q.A)
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
        self._spaces[active] = direct, basis
        return direct, basis

    def probe_directions(self, x: np.ndarray, basis: np.ndarray):
        """Check that every claimed face direction survives +-eps probing."""
        if not len(basis):
            return
        cand = np.concatenate([x + PROBE_EPS * basis, x - PROBE_EPS * basis])
        worst = float(self.fs.max_batch(cand).max())
        if worst > TOL_ACTIVE:
            raise ProbeMismatch(
                "a claimed face direction exits the set at the probe step "
                f"(residual {worst:.3e}); active set is degenerate at this point"
            )

    def active_set(self, fvals: np.ndarray) -> tuple[int, ...]:
        return tuple(int(j) for j in np.flatnonzero(fvals >= -TOL_ACTIVE))

    def measure(self, x: np.ndarray, fvals: np.ndarray, active: tuple[int, ...]) -> int:
        """Face dimension at x, given fvals = f(x) and active_set(fvals)."""
        if fvals.size and float(fvals.max()) > TOL_ACTIVE:
            raise ValueError("point is not feasible within tolerance")
        if not active:
            return self.system.dim
        space, basis = self.direction_space(active)
        self.probe_directions(x, basis)
        return space.dim


def minimal_face_dim_at(system: QuadraticSystem, x) -> int:
    """Dimension of the minimal face containing x, with cross-validation.

    Computed as the dimension of the intersection of the active constraints'
    face direction spaces; validated against a second exact route and a
    floating +-eps feasibility probe.  Raises ProbeMismatch on disagreement
    and ValueError when x is infeasible beyond tolerance.
    """
    ctx = _DimContext(system, [classify(q) for q in system.constraints])
    pt = np.array([float(e) for e in x], dtype=float)
    if len(pt) != system.dim:
        raise ValueError("point dimension mismatch")
    fvals = ctx.fs.eval_point(pt)
    return ctx.measure(pt, fvals, ctx.active_set(fvals))


# ---------------------------------------------------------------------------
# Probe path


def _sampled_directions(n: int, samples: int, seed: int) -> np.ndarray:
    """Unit directions from one generator; a run is a prefix of longer runs."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, n))
    norms = np.linalg.norm(dirs, axis=1)
    while (tiny := norms < 1e-12).any():
        dirs[tiny] = rng.standard_normal((int(tiny.sum()), n))
        norms = np.linalg.norm(dirs, axis=1)
    return dirs / norms[:, None]


def _restrict_affine(system: QuadraticSystem):
    """Exactly restrict away affine-subspace constraints.

    Returns (reduced system, classes, origin, offset, columns): classes[i]
    is the classification of reduced constraint i, which restricts the
    caller's constraint origin[i]; original points are
    offset + sum_k y_k * columns[k] for reduced coordinates y.  Face
    dimensions are preserved, the restriction being an affine isomorphism
    onto the affine hull.
    """
    offset: RVector = zero_vector(system.dim)
    columns: list[RVector] = [unit_vector(i, system.dim) for i in range(system.dim)]
    current = system
    origin = list(range(len(system.constraints)))

    while True:
        kinds = [classify(q) for q in current.constraints]
        if any(c.kind is _KIND.EMPTY for c in kinds):
            raise InfeasibleSystem("a constraint admits no solution")
        keep = [
            (q, c, o)
            for q, c, o in zip(current.constraints, kinds, origin)
            if c.kind is not _KIND.FULL_SPACE
        ]
        target = next(
            (
                (q, c)
                for q, c, _ in keep
                if c.kind in (_KIND.AFFINE_SUBSPACE, _KIND.SINGLETON)
            ),
            None,
        )
        if target is None:
            constraints = tuple(q for q, _, _ in keep)
            witness = current.interior_witness
            if witness is not None and any(
                evaluate(q, witness) >= 0 for q in constraints
            ):
                witness = None
            return (
                QuadraticSystem(
                    dim=current.dim,
                    constraints=constraints,
                    interior_witness=witness,
                ),
                [c for _, c, _ in keep],
                [o for _, _, o in keep],
                offset,
                columns,
            )
        q0, cls0 = target
        base = cls0.minimizer
        sub_basis = null_space_basis(q0.A).basis
        offset = vec_add(
            offset,
            _combine_columns(columns, base),
        )
        columns = [_combine_columns(columns, b) for b in sub_basis]
        new_constraints = []
        origin = []
        for q, _, o in keep:
            if q is q0:
                continue
            shifted_a = vec_add(mat_vec(q.A, base), q.a)
            new_a = tuple(dot(b, shifted_a) for b in sub_basis)
            new_rows = tuple(
                tuple(dot(bi, mat_vec(q.A, bj)) for bj in sub_basis)
                for bi in sub_basis
            )
            new_alpha = evaluate(q, base)
            new_constraints.append(
                ConvexQuadratic(A=new_rows, a=new_a, alpha=Fraction(new_alpha))
            )
            origin.append(o)
        current = QuadraticSystem(
            dim=len(sub_basis), constraints=tuple(new_constraints)
        )


def _combine_columns(columns: list[RVector], coeffs: RVector) -> RVector:
    if not columns:
        return ()
    out = zero_vector(len(columns[0]))
    for c, col in zip(coeffs, columns):
        if c != 0:
            out = vec_add(out, vec_scale(c, col))
    return out


def _gauss_newton_batch(
    fs: _FloatSystem, rows: np.ndarray, starts: np.ndarray
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


def _block_lineality_warnings(system: QuadraticSystem) -> list[str]:
    out = []
    for blk in blocks(system).blocks:
        if len(blk.system.constraints) < 2:
            continue
        stacked: list[RVector] = []
        for q in blk.system.constraints:
            stacked.extend(q.A)
            stacked.append(q.a)
        lin = null_space_basis(tuple(stacked), blk.system.dim)
        if lin.dim > 0:
            out.append(
                f"block on coordinates {blk.indices} is unbounded along "
                f"{lin.dim} direction(s); probe coverage may be incomplete"
            )
    return out


def probe_signature(
    system: QuadraticSystem,
    samples: int = DEFAULT_SAMPLES,
    seed: int | None = None,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> VerificationReport:
    """Probabilistic signature from seeded boundary sampling.

    Affine-subspace constraints are removed by exact restriction first.
    The `samples` ray directions come from one generator seeded by seed, so
    the same seed gives the same report and a run with more samples shoots
    the same rays first.  After sampling, every constraint tuple of size 1
    to tuple_cap that was never seen jointly active gets targeted
    Gauss-Newton refinement, which reaches faces that rays miss almost
    surely.  Refinement goes size by size in start-major rounds: round k
    solves the k-th start of every unresolved tuple in one batch, then the
    tuples are resolved in order by the first start that lands on a
    feasible point whose active set cross-validates.  Samples whose active
    set fails cross-validation are skipped and counted in warnings, and a
    warning names, by index in `system`, every constraint that was never
    active at a hit or a refined point; the result is a lower
    approximation of the signature in the worst case, never an overclaim.
    """
    if seed is None:
        seed = DEFAULT_SEED
    reduced, classes, origin, offset, columns = _restrict_affine(system)
    warnings: list[str] = []
    n = reduced.dim

    offset_f = np.array([float(e) for e in offset], dtype=float)
    columns_f = (
        np.array([[float(e) for e in col] for col in columns], dtype=float).T
        if columns
        else np.zeros((len(offset), 0))
    )

    def lift(y: np.ndarray) -> tuple:
        return tuple((offset_f + columns_f @ y).tolist())

    dims: dict[int, tuple] = {}
    if n == 0 or not reduced.constraints:
        dims[n] = lift(np.zeros(n))
        return VerificationReport(
            signature=Signature.of(n),
            method="probe",
            confidence=Confidence("probabilistic", samples, TOL_ACTIVE),
            witnesses=dims,
            warnings=tuple(warnings),
        )

    warnings.extend(_block_lineality_warnings(reduced))
    ctx = _DimContext(reduced, classes)
    x0 = interior_point(reduced)
    dims[n] = lift(x0)

    directions = _sampled_directions(n, samples, seed)
    pts, ok, vals = _batch_boundary(ctx.fs, x0, directions)

    seen_active: set[frozenset[int]] = set()
    first_hit: dict[int, np.ndarray] = {}
    skipped = 0
    for i in np.flatnonzero(ok):
        fv = vals[i]
        active = ctx.active_set(fv)
        if not active:
            continue
        for j in active:
            first_hit.setdefault(j, pts[i])
        try:
            d = ctx.measure(pts[i], fv, active)
        except ProbeMismatch:
            skipped += 1
            continue
        seen_active.add(frozenset(active))
        if d not in dims:
            dims[d] = lift(pts[i])
    if skipped:
        warnings.append(
            f"{skipped} of {samples} samples skipped: active set failed "
            "cross-validation near tolerance"
        )

    # Targeted refinement: corners where several constraints meet, and
    # constraints no ray reached, have measure zero for random rays, so
    # solve for activity directly.  Round k refines the k-th start of every
    # unresolved tuple of one size in one batch; a tuple is resolved by its
    # first start that lands on a feasible, cross-validated point, or once
    # a recorded active set covers it.
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
        active = ctx.active_set(fv)
        ever_active.update(active)
        try:
            d = ctx.measure(sol, fv, active)
        except ProbeMismatch:
            return False
        seen_active.add(frozenset(active))
        if d not in dims:
            dims[d] = lift(sol)
        return True

    for size in range(1, min(tuple_cap, m) + 1):
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

    never = sorted(origin[j] for j in range(m) if j not in ever_active)
    if never:
        warnings.append(
            f"constraint(s) {', '.join(map(str, never))} never active at a "
            "boundary hit or refinement; faces on them may be missing"
        )

    return VerificationReport(
        signature=Signature(tuple(dims)),
        method="probe",
        confidence=Confidence("probabilistic", samples, TOL_ACTIVE),
        witnesses=dims,
        warnings=tuple(warnings),
    )
