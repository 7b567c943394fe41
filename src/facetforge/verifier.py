"""Signature verification: exact structural path and numerical probe path.

The exact path decomposes a system into variable-disjoint blocks, matches
each block against the shapes it can certify (a single classified quadratic
or a shared-center ball-and-cylinders template with exact margin checks),
and combines block signatures by integer sumsets plus a shift for free
coordinates.  Every reported dimension carries a rational witness point.

The probe path is probabilistic.  It splits the system into the same
blocks and combines their signatures by the same sumset, so joint activity
across blocks needs no search.  In each block it restricts away
affine-subspace constraints exactly, finds an interior point, shoots seeded
random rays to the boundary and reads the minimal face dimension at each
hit off the active set.  It then refines with targeted Gauss-Newton solves
on single constraints and small constraint tuples, so that faces no ray
reaches (corners where constraints meet, constraints that touch the set
only where rays almost never land) are found too.  A tuple is refined only
when every sub-tuple one smaller has been seen active, since wherever a
tuple is active so are its sub-tuples; each round solves one start of
every unresolved tuple in one vectorized batch.  Refinement stops once
every face dimension of the block has a point and every constraint has
been active, since no later solve can change the report.  Constraints
never active at a hit or a refined point are named in a warning.  An
active set's face direction space is the null space of its constraints'
stacked rows (quadratics.constant_directions); the dimension of each
constraint's own such space is checked once against its exact
classification, and every claimed face direction is probed at +-eps in
floating point; disagreement surfaces as ProbeMismatch instead of being
resolved silently.

The probe path works on a float copy of the system that holds each
constraint's matrix as its nonzero triples (constraint, row, column,
value), so evaluating a point costs the nonzero entries, not m n^2, and
each constraint's quadratic and linear terms are summed in one fixed order,
so a point's values do not depend on its batch.  A batch of N points
evaluates to an m x N array, constraint-major, so reductions over the
constraints run along the contiguous point axis; a batch goes
ENTRY_BUDGET // max(m, n) points at a time and terms are gathered a block
of whole runs at a time, which bounds every temporary by entries.  Hits are
grouped by active set through each point's column of activity bits packed
into 64-bit words.  Ray exits are closed-form quadratic roots, pulled back
until the hit point evaluates feasible, and _FloatSystem.ray_exit returns
the point and values of that last check as the hit's, the one place a hit
point is computed.  Tolerances: activity 1e-8, face probe step 1e-6,
Newton residual 1e-12.  The separation between activity detection and the
probe step keeps quadratic curvature from masquerading as flatness.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .constructor import (
    ConstructionParams,
    boundary_disjointness_margins,
    template_margins,
    template_rows,
)
from .exact_linalg import (
    RVector,
    Subspace,
    dot,
    mat_vec,
    null_space_basis,
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
    constant_direction_dim,
    constant_directions,
    evaluate,
)
from .signatures import Signature

TOL_ACTIVE = 1e-8
PROBE_EPS = 1e-6
NEWTON_TOL = 1e-12
GROWTH_LIMIT = 2.0**45
BACKOFF_FLOOR = 20
DEFAULT_SEED = 42
NEWTON_MAX_ITER = 50
DEFAULT_TUPLE_CAP = 3
DEFAULT_SAMPLES = 2000
ENTRY_BUDGET = 2**15

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
    return DisjointnessCertificate(**boundary_disjointness_margins(params.c, params.r))


# ---------------------------------------------------------------------------
# Block decomposition


@dataclass(frozen=True)
class Block:
    """A variable-disjoint part of a system: the caller's coordinates
    `indices`, the caller's constraints `constraint_indices`, and `system`,
    those constraints restricted to those coordinates."""

    indices: tuple[int, ...]
    system: QuadraticSystem
    constraint_indices: tuple[int, ...]


@dataclass(frozen=True)
class BlockSplit:
    blocks: tuple[Block, ...]
    free_indices: tuple[int, ...]
    constant_constraints: tuple[ConvexQuadratic, ...]


def _support(q: ConvexQuadratic) -> set[int]:
    return {i for i, e in enumerate(q.a) if e}.union(q.A)


def _restrict_constraint(q: ConvexQuadratic, idx: tuple[int, ...]) -> ConvexQuadratic:
    # A principal submatrix of a PSD matrix is PSD; each nonzero row keeps
    # its positive diagonal entry, and sorted idx keeps the index order.
    pos = {k: p for p, k in enumerate(idx)}
    rows = {pos[i]: {pos[j]: e for j, e in row.items() if j in pos}
            for i, row in q.A.items() if i in pos}
    return ConvexQuadratic._psd_by_construction(rows, tuple(q.a[i] for i in idx), q.alpha)


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
    for k, q in enumerate(system.constraints):
        sup = sorted(_support(q))
        if not sup:
            constants.append(q)
            continue
        supports.append((k, q, sup))
        for i in sup[1:]:
            union(sup[0], i)

    groups: dict[int, list[int]] = {}
    used = set()
    for _, _, sup in supports:
        used.update(sup)
    for i in sorted(used):
        groups.setdefault(find(i), []).append(i)

    out = []
    for root in sorted(groups, key=lambda r: groups[r][0]):
        idx = tuple(groups[root])
        members = [(k, q) for k, q, sup in supports if find(sup[0]) == root]
        constr = tuple(_restrict_constraint(q, idx) for _, q in members)
        witness = None
        if system.interior_witness is not None:
            witness = tuple(system.interior_witness[i] for i in idx)
        out.append(
            Block(
                indices=idx,
                system=QuadraticSystem(
                    dim=len(idx), constraints=constr, interior_witness=witness
                ),
                constraint_indices=tuple(k for k, _ in members),
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


def _rational_sqrt_below(target_sq: Fraction, scale: Fraction | int) -> Fraction:
    """Rational t with t^2 slightly below target_sq (gap within tolerance).

    The exact root when target_sq is a rational square.  Otherwise every pick
    at precision p = 2^b is t = k/p with k = isqrt(floor(target * p^2)), the
    largest k with k^2 < target * p^2 (no k^2 equals it, as target is not a
    square), and its gap (target - t^2) * scale is tested in rationals
    against 1% of the activity tolerance.  The first b of 48, 64, 96, 128
    whose gap passes wins if its k is nonzero; otherwise b doubles from 48
    until k has at least 49 bits (relative gap below 2^-46) and the gap
    passes.  A pick whose gap misses the bound is never returned.
    """
    exact = _fraction_sqrt(target_sq)
    if exact is not None:
        return exact
    num, den = target_sq.numerator, target_sq.denominator
    bound = Fraction(0.01 * TOL_ACTIVE)

    def pick(shift_bits: int) -> tuple[int, Fraction, bool]:
        k = math.isqrt((num << 2 * shift_bits) // den)
        t = Fraction(k, 1 << shift_bits)
        return k, t, (target_sq - t * t) * scale <= bound

    for shift_bits in (48, 64, 96, 128):
        k, t, close = pick(shift_bits)
        if close:
            if k:
                return t
            break
    shift_bits = 48
    while True:
        k, t, close = pick(shift_bits)
        if close and k >> 48:
            return t
        shift_bits *= 2


def _boundary_point_along(
    q: ConvexQuadratic, cls: QuadraticClass, direction: RVector
) -> RVector:
    """Point of {f = 0} on the ray from the minimizer along direction.

    The crossing parameter t solves t^2 <Ad, d> = -f(minimizer).  Exact when
    that t is a rational square root; otherwise _rational_sqrt_below's
    dyadic t, a point strictly inside with -0.01 * TOL_ACTIVE <= f <= 0, so
    the constraint still registers active.
    """
    assert cls.minimizer is not None and cls.min_value is not None
    curod = dot(direction, mat_vec(q.A, direction))
    assert curod > 0
    ratio = -cls.min_value / curod
    t = _rational_sqrt_below(ratio, curod)
    return vec_add(cls.minimizer, vec_scale(t, direction))


def _cylinder_ball_direction(q: ConvexQuadratic) -> RVector:
    # Some diagonal entry of a nonzero PSD matrix is positive.
    for i, row in q.A.items():
        if row.get(i, 0) > 0:
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
    if kind in (_KIND.SINGLETON, _KIND.AFFINE_SUBSPACE):
        return cls.signature, {cls.nullity: cls.minimizer}
    if kind is _KIND.CYLINDER_BALL:
        direction = _cylinder_ball_direction(q)
        boundary = _boundary_point_along(q, cls, direction)
        return cls.signature, {cls.nullity: boundary, n: cls.minimizer}
    # A half-space or a cylinder over a paraboloid: along v = a (A = 0) or
    # v = a_N (Av = 0), f(sv) = 2s|v|^2 + alpha, which is 0 at the boundary
    # point and -1 at the interior one.
    assert kind in (_KIND.HALF_SPACE, _KIND.PARABOLOID_CYLINDER)
    v = q.a if kind is _KIND.HALF_SPACE else cls.null_component
    twice_norm_sq = 2 * dot(v, v)
    return cls.signature, {
        cls.proper_face_dim: vec_scale(-q.alpha / twice_norm_sq, v),
        n: vec_scale((-q.alpha - 1) / twice_norm_sq, v),
    }


def _parse_template_cylinder(q: ConvexQuadratic):
    """(index, c, r_squared) when q matches the centered cylinder shape."""
    idx = min(q.A, default=0)
    if not 1 <= idx <= q.dim - 1 or q.A != template_rows(idx, q.dim):
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
    return (
        q.alpha == -1
        and not any(q.a)
        and q.A == template_rows(0, q.dim)
    )


def _match_ball_cylinder_template(system: QuadraticSystem):
    """Signature and witnesses for a shared-center ball-and-cylinders block.

    Requires exactly one unit ball, centered cylinders with one shared
    (c, r^2) pair whose margins prove pairwise boundary disjointness inside
    the ball, and pairwise distinct cylinder indices.  Returns None when the
    block does not match.
    """
    d = system.dim
    parsed = [
        _parse_template_cylinder(q) for q in system.constraints if not _is_unit_ball(q)
    ]
    if not parsed or len(parsed) != len(system.constraints) - 1 or None in parsed:
        return None
    indices = [p[0] for p in parsed]
    if len(set(indices)) != len(indices):
        return None
    c = parsed[0][1]
    r_sq = parsed[0][2]
    if any(p[1] != c or p[2] != r_sq for p in parsed):
        return None
    if min(template_margins(c, r_sq)) <= 0:
        return None
    sig = Signature(tuple([0, d] + indices))
    witnesses: dict[int, RVector] = {d: zero_vector(d), 0: unit_vector(0, d)}
    # Touching point of each cylinder: pivot coordinate just at r - c, which
    # stays strictly inside the ball and the other cylinders.
    t = _rational_sqrt_below(r_sq, 1)
    for idx in indices:
        witnesses[idx] = vec_scale(t - c, unit_vector(idx, d))
    return sig, witnesses


def _split(system: QuadraticSystem) -> BlockSplit:
    """blocks(system), raising InfeasibleSystem on a positive constant."""
    split = blocks(system)
    for q in split.constant_constraints:
        if q.alpha > 0:
            raise InfeasibleSystem("a constant constraint is positive")
    return split


def _combine_blocks(
    dim: int,
    split: BlockSplit,
    block_data: list[tuple[Signature, dict]],
    zero: Fraction | float,
) -> dict[int, tuple]:
    """Witnesses of a direct sum from its blocks' own, one per dimension.

    block_data[i] holds the signature of split.blocks[i] and a witness per
    dimension in the block's coordinates.  Faces of a direct sum are
    products of faces, so the dimensions are the sumset of the block
    signatures shifted by the free coordinates.  Each gets the point
    scattered from its first per-block decomposition (blocks taken in order,
    partial sums in increasing order), with zero at the free coordinates.
    """
    reachable: dict[int, tuple[int, ...]] = {0: ()}
    for sig, _ in block_data:
        nxt: dict[int, tuple[int, ...]] = {}
        for total, choice in sorted(reachable.items()):
            for d in sig:
                if total + d not in nxt:
                    nxt[total + d] = choice + (d,)
        reachable = nxt

    free = len(split.free_indices)
    witnesses: dict[int, tuple] = {}
    for total, choice in reachable.items():
        x = [zero] * dim
        for blk, (_, wmap), d in zip(split.blocks, block_data, choice):
            for local, value in enumerate(wmap[d]):
                x[blk.indices[local]] = value
        witnesses[total + free] = tuple(x)
    return witnesses


def exact_signature(system: QuadraticSystem) -> VerificationReport:
    """Certified signature via block split, classification and templates.

    Raises InfeasibleSystem when the set is provably empty and
    UnrecognizedStructure when a block is neither a single quadratic nor a
    ball-and-cylinders template (the probe path handles those).
    """
    split = _split(system)
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

    witnesses = _combine_blocks(system.dim, split, block_data, Fraction(0))
    for total, point in witnesses.items():
        for j, q in enumerate(system.constraints):
            if evaluate(q, point) > 0:
                raise AssertionError(
                    f"witness for dimension {total} violates constraint {j}"
                )

    return VerificationReport(
        signature=Signature(tuple(witnesses)),
        method="exact",
        confidence=Confidence(kind="exact"),
        witnesses=witnesses,
        warnings=(),
    )


# ---------------------------------------------------------------------------
# Float machinery shared by the probe path


class _Jagged:
    """Per-constraint sums over entries sorted by constraint K, each
    constraint's entries added one by one in that order, from 0.0.

    The entries go in jagged order (entry order[e] goes e-th): constraints
    by decreasing entry count, and the t-th entries of all constraints with
    more than t entries in one run, so the t-th addition is one slice over
    a prefix of the constraints.
    """

    def __init__(self, K: np.ndarray, m: int):
        bounds = np.searchsorted(K, np.arange(m + 1))
        rank = np.empty(m, dtype=np.intp)
        rank[np.argsort(-np.diff(bounds), kind="stable")] = np.arange(m)
        position = np.arange(len(K)) - bounds[K]
        self.m, self.order = m, np.lexsort((rank[K], position))
        self.runs = np.bincount(position).tolist()
        self.starts = [0, *itertools.accumulate(self.runs)]
        # None when the constraints already come by decreasing entry count
        self.rank = None if (rank == np.arange(m)).all() else rank

    def sum(self, terms, width: int) -> np.ndarray:
        """Sums of terms, m x width, where terms(s) gives the terms of the
        jagged entries s, one row of width each.  It is asked for whole runs
        at a time, as many as hold at most ENTRY_BUDGET // width entries
        (one run at least)."""
        acc = np.zeros((self.m, width))
        starts, take, i = self.starts, ENTRY_BUDGET // max(width, 1), 0
        while i < len(self.runs):
            j = max(i + 1, bisect.bisect_right(starts, starts[i] + take) - 1)
            block = terms(slice(starts[i], starts[j]))
            for r in range(i, j):
                acc[: self.runs[r]] += block[starts[r] - starts[i] : starts[r + 1] - starts[i]]
            i = j
        return acc if self.rank is None else acc[self.rank]


class _FloatSystem:
    """Float copy of a system: f_j(x) = x^T A_j x + 2 a_j^T x + alpha_j.

    Batches are constraint-major: the forms and values of N points come
    back as an m x N array, so every reduction over the constraints (the
    max, the fmin over ray exits, the any over active constraints) runs
    row by row along the contiguous point axis.

    The matrices are held as their nonzero entries, the triples
    A_K[I, J] = V, which come sorted by constraint, then row, then column;
    constraint j's entries are bounds[j]:bounds[j + 1].  A quadratic form
    sums the terms (x_I V) x_J of each constraint one by one in that order,
    the linear term sums (2 a_jk) x_k over the nonzero a_jk by column (both
    through _Jagged), and A_j x sums each row's terms the same way
    (np.bincount).  So a point's f value, like its forms, does not depend
    on the batch it comes in.  A batch goes ENTRY_BUDGET // max(m, n)
    points at a time (at least one), and terms are gathered a block of
    whole runs at a time, so no temporary holds more than
    max(ENTRY_BUDGET, m, n) entries, whatever the number of nonzeros.
    _DimContext.measure_batch sizes its +-eps probe batches from the same
    budget, so each is one such piece.
    """

    def __init__(self, n: int, K, I, J, V, a: np.ndarray, alpha: np.ndarray):
        self.K, self.I, self.J = (np.asarray(x, dtype=np.intp) for x in (K, I, J))
        self.V = np.asarray(V, dtype=float)
        self.a, self.alpha = a, alpha
        self.m, self.n = len(alpha), n
        self.bounds = np.searchsorted(self.K, np.arange(self.m + 1))
        self._cells = self.K * n + self.I
        self._forms = _Jagged(self.K, self.m)
        order = self._forms.order
        self._jI, self._jJ, self._jV = self.I[order], self.J[order], self.V[order, None]
        aK, aJ = np.nonzero(a)
        self._linear = _Jagged(aK, self.m)
        order = self._linear.order
        self._aJ, self._aV = aJ[order], 2.0 * a[aK[order], aJ[order], None]

    @classmethod
    def from_system(cls, system: QuadraticSystem) -> "_FloatSystem":
        K, I, J, V = [], [], [], []
        for k, q in enumerate(system.constraints):
            for i, row in q.A.items():
                K.extend([k] * len(row))
                I.extend([i] * len(row))
                J.extend(row)
                V.extend(float(e) for e in row.values())
        a = np.array([[float(e) for e in q.a] for q in system.constraints], dtype=float)
        alpha = np.array([float(q.alpha) for q in system.constraints], dtype=float)
        return cls(system.dim, K, I, J, V, a.reshape(len(alpha), system.dim), alpha)

    def matrix(self, k: int) -> np.ndarray:
        """A_k as a dense n x n array."""
        A = np.zeros((self.n, self.n))
        own = slice(self.bounds[k], self.bounds[k + 1])
        A[self.I[own], self.J[own]] = self.V[own]
        return A

    def _in_chunks(self, pts: np.ndarray, sums) -> np.ndarray:
        """sums(p) for every row of pts, m x len(pts), where p holds
        ENTRY_BUDGET // max(m, n) rows of pts at a time (at least one),
        transposed."""
        per = max(1, ENTRY_BUDGET // max(self.m, self.n, 1))
        if len(pts) <= per:
            return sums(np.ascontiguousarray(pts.T))
        out = np.empty((self.m, len(pts)))
        for start in range(0, len(pts), per):
            out[:, start : start + per] = sums(np.ascontiguousarray(pts[start : start + per].T))
        return out

    def quad_forms(self, pts: np.ndarray) -> np.ndarray:
        """x^T A_j x for every constraint j and every row x of pts: m x len(pts)."""

        def sums(p):
            def terms(s):
                t = p[self._jI[s]]
                t *= self._jV[s]
                t *= p[self._jJ[s]]
                return t

            return self._forms.sum(terms, p.shape[1])

        return self._in_chunks(pts, sums)

    def linear_terms(self, pts: np.ndarray) -> np.ndarray:
        """2 a_j^T x for every constraint j and every row x of pts: m x len(pts)."""
        return self._in_chunks(
            pts, lambda p: self._linear.sum(lambda s: p[self._aJ[s]] * self._aV[s], p.shape[1])
        )

    def products(self, xs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """A_j x for x = xs[l] and j = rows[l, r]: len(xs) x rows.shape[1] x n.

        Each row l gathers only the entries of its own constraints.
        """
        L, k = rows.shape
        own = rows.reshape(-1)
        count = self.bounds[own + 1] - self.bounds[own]
        # entry: the runs bounds[c]:bounds[c + 1] of the constraints in own,
        # one after another; pair: the (l, r) each entry belongs to
        pair = np.repeat(np.arange(L * k), count)
        shift = self.bounds[own] - (np.cumsum(count) - count)
        entry = np.arange(len(pair)) + np.repeat(shift, count)
        weights = self.V[entry] * xs[pair // k, self.J[entry]]
        sums = np.bincount(pair * self.n + self.I[entry], weights, minlength=L * k * self.n)
        return sums.reshape(L, k, self.n)

    def half_gradients(self, x: np.ndarray) -> np.ndarray:
        """A_j x + a_j for every constraint j: m x n."""
        ax = np.bincount(self._cells, self.V * x[self.J], minlength=self.m * self.n)
        return ax.reshape(self.m, self.n) + self.a

    def gradients(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self.half_gradients(x)

    def restrict(self, base: np.ndarray, U: np.ndarray) -> "_FloatSystem":
        """The system on the affine space base + U^T p, in coordinates p."""
        k = len(U)
        terms = (U.T[self._jI] * self._jV)[:, :, None] * U.T[self._jJ][:, None, :]
        image = self._forms.sum(terms.reshape(-1, k * k).__getitem__, k * k)
        image = image.reshape(self.m, k, k)
        K, P, Q = np.nonzero(image)
        return _FloatSystem(
            k, K, P, Q, image[K, P, Q],
            self.half_gradients(base) @ U.T,
            self.eval_point(base),
        )

    def eval_batch(self, pts: np.ndarray) -> np.ndarray:
        """f_j(x) for every constraint j and every row x of pts: m x len(pts)."""
        f = self.quad_forms(pts)
        f += self.linear_terms(pts)
        f += self.alpha[:, None]
        return f

    def eval_point(self, x: np.ndarray) -> np.ndarray:
        return self.eval_batch(x[None, :])[:, 0]

    def ray_exit(
        self, x0: np.ndarray, dirs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, pts, vals) per ray: the smallest t > 0 at which
        max_j f_j(x0 + t d) reaches 0, the hit point x0 + t d as a row of
        pts and f at it as a column of vals, m x len(dirs).

        Along a ray f_j is qa t^2 + 2 qb t + qc; its exit is the larger root
        in cancellation-free form.  Recession rays (exit >= GROWTH_LIMIT) get
        inf.  Hits that still evaluate infeasible are pulled back by relative
        steps doubling from 2^-52 until max_j f_j <= 0; past 2^-BACKOFF_FLOOR
        they get inf too.  pts are the points of each ray's last check and
        vals their values, so vals = f(pts) holds bit for bit; a ray with
        t = inf gets x0 and f(x0).
        """
        qa = self.quad_forms(dirs)
        qb = np.ascontiguousarray((dirs @ self.half_gradients(x0).T).T)
        qc = self.eval_point(x0)[:, None]
        root = np.sqrt(np.maximum(qb * qb - qa * qc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(qb > 0, -qc / (qb + root), (root - qb) / qa)
        t = np.fmin.reduce(t, axis=0, initial=np.inf)
        t[t >= GROWTH_LIMIT] = np.inf
        # the first check takes every ray at once, a recession ray at x0
        finite = np.isfinite(t)
        pts = x0 + np.where(finite, t, 0.0)[:, None] * dirs
        vals = self.eval_batch(pts)
        pending = np.flatnonzero(finite & (vals.max(axis=0, initial=-np.inf) > 0.0))
        for shift_bits in range(52, BACKOFF_FLOOR + 1, -1):
            if not len(pending):
                break
            t[pending] *= 1.0 - 2.0 ** -shift_bits
            pts[pending] = x0 + t[pending, None] * dirs[pending]
            f = self.eval_batch(pts[pending])
            vals[:, pending] = f
            pending = pending[f.max(axis=0, initial=-np.inf) > 0.0]
        t[pending] = np.inf
        pts[pending] = x0
        vals[:, pending] = qc
        return t, pts, vals


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
        sol, *_ = np.linalg.lstsq(fs.matrix(k), -fs.a[k], rcond=None)
        if np.isfinite(sol).all():
            candidates.append(sol)
    if len(candidates) > 2:
        candidates.append(np.mean(candidates[1:], axis=0))

    worst = fs.eval_batch(np.array(candidates)).max(axis=0).tolist()
    feasible = [k for k, val in enumerate(worst) if val < 0]
    if feasible:
        return candidates[min(feasible, key=lambda k: abs(math.log10(-worst[k])))]
    k = min(range(len(candidates)), key=worst.__getitem__)
    x = candidates[k]
    best_x, best_val = x.copy(), worst[k]
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
        # The float outer products first: np.bincount over no matrix
        # entries returns int64, which cannot take them in place.
        hess = np.einsum("mi,mj->ij", grads / slack[:, None], grads / slack[:, None])
        hess += np.bincount(
            fs.I * fs.n + fs.J, fs.V * (2.0 / slack)[fs.K], minlength=fs.n * fs.n
        ).reshape(fs.n, fs.n)
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
    t, pts, _ = fs.ray_exit(x0, d[None, :])
    return pts[0] if np.isfinite(t[0]) else None


# ---------------------------------------------------------------------------
# Minimal face dimension at a point


class _DimContext:
    """Face measurement for one system.

    classes[j] is classify(system.constraints[j]), computed by the caller.
    Each constraint is checked once: its constant directions must have the
    dimension its class claims, that of face_directions where the class has
    them and the nullity otherwise (constant_direction_dim, a pivot count,
    so no basis is built).
    Direction spaces are cached per active set.  measure_batch groups its
    points by active set (_group_columns), so each distinct set is looked up
    once, and evaluates every point's own +-eps probes a chunk of points at
    a time: ENTRY_BUDGET // max(m, n) // len(steps) whole points, so a
    chunk's probes fit one _in_chunks piece.  Where even one point's probes
    exceed ENTRY_BUDGET // max(m, n), the chunk is that point alone and its
    steps go that many at a time, so no eval_batch call holds more.
    """

    def __init__(self, system: QuadraticSystem, classes: list[QuadraticClass]):
        self.system = system
        self.fs = _FloatSystem.from_system(system)
        self.classes = classes
        self.mismatched = {
            j for j, (q, cls) in enumerate(zip(system.constraints, classes))
            if constant_direction_dim((q,), system.dim)
            != (cls.nullity if cls.face_directions is None else cls.face_directions.dim)
        }
        self._spaces: dict[tuple[int, ...], tuple[Subspace, np.ndarray]] = {}
        self._magnitudes: _FloatSystem | None = None

    def rounding_error(self, pt: np.ndarray) -> np.ndarray:
        """A bound on |fs.eval_point(pt) - f(x)|, per constraint, for the
        exact point x whose coordinates round to pt.

        Each term of f_j(x) is a product of at most three rounded inputs,
        rounded twice, and fs adds at most k - 8 terms one by one, then
        alpha, with k = V.size + n + 8.  So the error is at most
        gamma_k M_j = k u M_j / (1 - k u), u = 2^-53, where M_j sums the
        magnitudes of the terms: f_j at |x| with every entry made absolute,
        which the same kernel computes within a factor 1 +- gamma_k.  For
        k u below 1/4, 2 k u times the computed M_j covers both.
        """
        if self._magnitudes is None:
            fs = self.fs
            self._magnitudes = _FloatSystem(
                fs.n, fs.K, fs.I, fs.J, np.abs(fs.V), np.abs(fs.a), np.abs(fs.alpha)
            )
        k = self.fs.V.size + self.fs.n + 8
        return 2 * k * 2.0**-53 * self._magnitudes.eval_point(np.abs(pt))

    def direction_space(self, active: tuple[int, ...]) -> tuple[Subspace, np.ndarray]:
        """Directions along which every constraint of an active set is
        constant, with the basis as unit float rows; ProbeMismatch when the
        set holds a constraint that failed its check."""
        if active in self._spaces:
            return self._spaces[active]
        if any(self.classes[j].kind is _KIND.EMPTY for j in active):
            raise InfeasibleSystem("active constraint admits no solution")
        if bad := sorted(self.mismatched.intersection(active)):
            raise ProbeMismatch(
                f"constraint(s) {bad} of active set {active} have constant "
                "directions that disagree with their classification"
            )
        n = self.system.dim
        space = constant_directions([self.system.constraints[j] for j in active], n)
        basis = np.array(
            [[float(e) for e in b] for b in space.basis], dtype=float
        ).reshape(space.dim, n)
        basis /= np.linalg.norm(basis, axis=1, keepdims=True)
        self._spaces[active] = space, basis
        return space, basis

    def measure_batch(
        self, pts: np.ndarray, fvals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[tuple[int, ...], np.ndarray]]]:
        """Active sets and face dimensions at the rows of pts, given
        fvals = f(pts) as m x len(pts).

        Returns (active, dims, groups): active[:, i] is the boolean column
        fvals[:, i] >= -TOL_ACTIVE, dims[i] the dimension of the minimal
        face at pts[i], or -1 where the active set fails cross-validation
        (it holds a constraint that failed the check against its class, or
        a claimed face direction exits the set at the +-eps probe from
        pts[i]), and groups the distinct active sets with their points
        (_group_columns).  Raises ValueError when a point is infeasible
        beyond tolerance.
        """
        if fvals.size and float(fvals.max()) > TOL_ACTIVE:
            raise ValueError("point is not feasible within tolerance")
        active = fvals >= -TOL_ACTIVE
        dims = np.full(len(pts), self.system.dim)
        groups = _group_columns(active)
        for act, members in groups:
            if not act:
                continue
            try:
                space, basis = self.direction_space(act)
            except ProbeMismatch:
                dims[members] = -1
                continue
            dims[members] = space.dim
            if not len(basis):
                continue
            steps = np.concatenate([PROBE_EPS * basis, -PROBE_EPS * basis])
            cap = max(1, ENTRY_BUDGET // max(self.fs.m, self.fs.n, 1))
            per = max(1, cap // len(steps))
            for start in range(0, len(members), per):
                chunk = members[start : start + per]
                worst = np.full(len(chunk), -np.inf)
                # step-major, so one reduction down the columns of the m x
                # (steps x chunk) values takes the worst over both; a lone
                # point's steps go cap at a time when they exceed it
                for lo in range(0, len(steps), cap):
                    part = steps[lo : lo + cap, None, :]
                    probes = (part + pts[chunk]).reshape(-1, pts.shape[1])
                    f = self.fs.eval_batch(probes).reshape(-1, len(chunk)).max(axis=0)
                    np.maximum(worst, f, out=worst)
                dims[chunk[worst > TOL_ACTIVE]] = -1
        return active, dims, groups


def _group_columns(active: np.ndarray) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The distinct columns of a boolean m x N matrix, each as the tuple of
    its True rows with the indices of the columns equal to it, in the order
    of np.unique(active.T, axis=0).

    Each column is packed into big-endian 64-bit words, row 0 in the top
    bit of the first word, so the word tuples sort as the columns do; one
    lexsort orders them for every row count.
    """
    if not active.shape[1]:
        return []
    packed = np.packbits(active, axis=0)
    words = np.zeros((active.shape[1], -(-len(packed) // 8) * 8 or 8), dtype=np.uint8)
    words[:, : len(packed)] = packed.T
    keys = np.ascontiguousarray(words.view(">u8").T)
    order = np.lexsort(keys[::-1])
    ordered = keys[:, order]
    starts = np.flatnonzero(np.r_[True, (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)])
    sets = [tuple(np.flatnonzero(col).tolist()) for col in active.T[order[starts]]]
    return list(zip(sets, np.split(order, starts[1:])))


def _dim_context(system: QuadraticSystem) -> _DimContext:
    """The system's _DimContext, built on first use and kept on the system."""
    ctx = system.__dict__.get("_dim_context")
    if ctx is None:
        ctx = _DimContext(system, [classify(q) for q in system.constraints])
        object.__setattr__(system, "_dim_context", ctx)
    return ctx


def minimal_face_dim_at(system: QuadraticSystem, x) -> int:
    """Dimension of the minimal face containing x, with cross-validation.

    Computed as the dimension of the directions along which every active
    constraint is constant; validated by each active constraint's check
    against its classification and a floating +-eps feasibility probe.
    Raises ProbeMismatch on disagreement and ValueError when x is infeasible
    beyond tolerance.  When every coordinate of x is a Fraction or an int,
    activity and feasibility are decided on the exact values f_j(x): each
    float value within its rounding error of +-TOL_ACTIVE is replaced by
    quadratics.evaluate's exact sum.  The classification, its per-constraint
    check and the float copy of the system are built on the first call and
    reused by later calls on the same system.
    """
    ctx = _dim_context(system)
    pt = np.array([float(e) for e in x], dtype=float)
    if len(pt) != system.dim:
        raise ValueError("point dimension mismatch")
    fvals = ctx.fs.eval_point(pt)
    if all(isinstance(e, (Fraction, int)) for e in x):
        # NaN counts as unsure too.  The exact sum is clamped to [-1, 1]:
        # only its side of +-TOL_ACTIVE counts, and float() overflows.
        unsure = ~(np.abs(np.abs(fvals) - TOL_ACTIVE) > ctx.rounding_error(pt))
        for j in np.flatnonzero(unsure):
            fvals[j] = float(min(max(evaluate(system.constraints[j], x), -1), 1))
    _, dims, _ = ctx.measure_batch(pt[None, :], fvals[:, None])
    if dims[0] < 0:
        raise ProbeMismatch(
            "the active set at this point fails cross-validation: it holds "
            "a constraint whose constant directions disagree with its "
            "classification, or a claimed face direction exits the set at "
            "the probe step"
        )
    return int(dims[0])


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
            # Any witness passed QuadraticSystem's strict check.
            return (
                QuadraticSystem(
                    dim=current.dim,
                    constraints=tuple(q for q, _, _ in keep),
                    interior_witness=current.interior_witness,
                ),
                [c for _, c, _ in keep],
                [o for _, _, o in keep],
                offset,
                columns,
            )
        q0, cls0 = target
        base = cls0.minimizer
        sub_basis = null_space_basis(tuple(q0.A.values()), current.dim).basis
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
            images = [mat_vec(q.A, b) for b in sub_basis]
            # B^T A B is symmetric PSD for PSD A.
            new_rows = {}
            for i, bi in enumerate(sub_basis):
                row = {j: e for j, image in enumerate(images) if (e := dot(bi, image))}
                if row:
                    new_rows[i] = row
            new_constraints.append(
                ConvexQuadratic._psd_by_construction(new_rows, new_a, evaluate(q, base))
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
    the lstsq cutoff max(k, n) * eps; each candidate's Jacobian gathers
    only its own constraints' entries.  A candidate converges once every
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
        half_grad = fs.products(xl, r) + fs.a[r]
        f = np.einsum("kri,ki->kr", half_grad + fs.a[r], xl) + fs.alpha[r]
        done = np.abs(f).max(axis=1) <= NEWTON_TOL
        out[live[done]] = xl[done]
        step = np.linalg.pinv(2.0 * half_grad[~done], rcond=rcond) @ f[~done, :, None]
        live, xl = live[~done], xl[~done] - step[:, :, 0]
        ok = np.linalg.norm(xl, axis=1) <= 1e12  # False on non-finite rows
        live = live[ok]
        x[live] = xl[ok]
    return out


def _lineality_warning(blk: Block) -> list[str]:
    """A warning when a block of two or more constraints is unbounded along
    a line, naming the block by the caller's coordinates."""
    if len(blk.system.constraints) < 2:
        return []
    lin = constant_direction_dim(blk.system.constraints, blk.system.dim)
    if not lin:
        return []
    return [
        f"block on coordinates {blk.indices} is unbounded along "
        f"{lin} direction(s); probe coverage may be incomplete"
    ]


class _FaceLog:
    """What the probe path has found so far.

    points maps each face dimension to the first point that showed it;
    seen numbers the cross-validated active sets, and index[j] holds the
    numbers of those containing constraint j, so covered() intersects a few
    small sets instead of scanning every recorded set.  first_hit maps each
    constraint to the first boundary hit where it is active, ever_active
    holds every constraint active at a hit or a refined point, and skipped
    counts hits whose active set failed cross-validation.
    """

    def __init__(self, m: int, n: int, x0: np.ndarray):
        self.n = n
        self.points: dict[int, np.ndarray] = {n: x0}
        self.seen: dict[frozenset[int], int] = {}
        self.index: list[set[int]] = [set() for _ in range(m)]
        self.first_hit: dict[int, np.ndarray] = {}
        self.ever_active: set[int] = set()
        self.skipped = 0

    def add(self, active: frozenset[int]):
        if active not in self.seen:
            self.seen[active] = len(self.seen)
            for j in active:
                self.index[j].add(self.seen[active])

    def covered(self, tup: tuple[int, ...]) -> bool:
        return bool(set.intersection(*(self.index[j] for j in tup)))

    def settled(self) -> bool:
        """Every dimension 0..n has a point and every constraint has been
        active, so no refinement can change what the probe reports."""
        return len(self.points) > self.n and len(self.ever_active) == len(self.index)


def _read_hits(ctx: _DimContext, log: _FaceLog, pts: np.ndarray, vals: np.ndarray):
    """Record the faces at boundary hits pts, in ray order, with vals = f(pts)
    as m x len(pts).

    Hits with no active constraint are passed over.  A hit whose active set
    fails cross-validation still counts for first_hit but is skipped; an
    active set is recorded when one of its hits cross-validates.
    """
    active, dims, groups = ctx.measure_batch(pts, vals)
    first = active.argmax(axis=1)
    log.first_hit.update((int(j), pts[first[j]]) for j in np.flatnonzero(active.any(axis=1)))
    hit = active.any(axis=0)
    log.skipped += int(np.count_nonzero(hit & (dims < 0)))
    for act, members in groups:
        if act and (dims[members] >= 0).any():
            log.add(frozenset(act))
    good = np.flatnonzero(hit & (dims >= 0))
    found, at = np.unique(dims[good], return_index=True)
    for k in np.argsort(at):
        log.points.setdefault(int(found[k]), pts[good[at[k]]])


def _read_refined(ctx: _DimContext, log: _FaceLog, pending: list, sols: np.ndarray) -> list:
    """Resolve one refinement round; returns the entries still unresolved.

    Every feasible solution is measured in one batch; the entries are then
    resolved in order, each by the covering check against the sets recorded
    so far, or by its own solution when that is feasible and cross-validates.
    """
    valid = np.flatnonzero(~np.isnan(sols[:, 0]))
    fv = ctx.fs.eval_batch(sols[valid])
    feasible = fv.max(axis=0) <= TOL_ACTIVE
    active, dims, _ = ctx.measure_batch(sols[valid[feasible]], fv[:, feasible])
    row_of = {int(i): r for r, i in enumerate(valid[feasible])}
    unresolved = []
    for i, entry in enumerate(pending):
        if log.covered(entry[0]):
            continue
        r = row_of.get(i)
        if r is None:
            unresolved.append(entry)
            continue
        act = frozenset(np.flatnonzero(active[:, r]).tolist())
        log.ever_active.update(act)
        if dims[r] < 0:
            unresolved.append(entry)
            continue
        log.add(act)
        log.points.setdefault(int(dims[r]), sols[i])
    return unresolved


def _probe_faces(ctx: _DimContext, x0: np.ndarray, dirs: np.ndarray) -> _FaceLog:
    """Faces at the boundary hits of the rays from x0 along dirs, then by
    targeted refinement.

    Corners where several constraints meet, and constraints no ray reached,
    have measure zero for random rays, so refinement solves for activity
    directly, size by size up to DEFAULT_TUPLE_CAP.  A tuple of two or more
    constraints is refined only when each of its sub-tuples one smaller is
    covered by a recorded active set: wherever a tuple is active, so is
    every sub-tuple.  Round k refines the k-th start of every unresolved
    tuple of one size in one batch; a tuple is resolved by its first start
    that lands on a feasible, cross-validated point, or once a recorded
    active set covers it.  probe_signature reads only points, ever_active
    and skipped; refinement never changes skipped and only adds dimensions
    and constraints not yet recorded.  So once the log has settled
    (_FaceLog.settled), no later round can change the report, and
    refinement stops before the next size or round.
    """
    m = ctx.fs.m
    log = _FaceLog(m, ctx.system.dim, x0)
    t, pts, vals = ctx.fs.ray_exit(x0, dirs)
    ok = np.isfinite(t)
    _read_hits(ctx, log, pts[ok], vals[:, ok])
    log.ever_active.update(log.first_hit)
    for size in range(1, min(DEFAULT_TUPLE_CAP, m) + 1):
        if log.settled():
            break
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
            if not pending or log.settled():
                break
            sols = _gauss_newton_batch(
                ctx.fs,
                np.array([tup for tup, _ in pending]),
                np.array([starts[k] for _, starts in pending]),
            )
            pending = _read_refined(ctx, log, pending, sols)
    return log


def probe_signature(
    system: QuadraticSystem,
    samples: int = DEFAULT_SAMPLES,
    seed: int | None = None,
) -> VerificationReport:
    """Probabilistic signature from seeded boundary sampling, block by block.

    The system is split into variable-disjoint blocks (blocks()); each block
    is probed on its own and the block reports are combined as the exact
    path combines its blocks: the sumset of the block signatures, shifted
    by the free coordinates, with witnesses scattered into place.  Joint
    activity across blocks therefore comes from the sumset.

    In each block, affine-subspace constraints are removed by exact
    restriction first.  The block shoots `samples` ray directions from one
    generator seeded by seed, so the same seed gives the same report and a
    run with more samples shoots the same rays first.  All hits are
    measured in one batch: hits are grouped by active set, each distinct
    set's direction space is computed once, and every hit gets its own
    +-eps probe (_DimContext.measure_batch).  After sampling, constraint
    tuples of size 1 to DEFAULT_TUPLE_CAP that were never seen jointly
    active get targeted Gauss-Newton refinement, which reaches faces that
    rays miss almost surely; a tuple of two or more is tried only when all
    its sub-tuples one smaller have been seen active.  Refinement goes size
    by size in start-major rounds: round k solves the k-th start of every
    unresolved tuple in one batch, then the tuples are resolved in order by
    the first start that lands on a feasible point whose active set
    cross-validates.  Refinement stops as soon as every dimension 0..n of
    the block has a point and every constraint has been active, so on a
    complete template {0..n} whose rays and single-constraint solves find
    every face no pair is tried.  Samples whose active set fails
    cross-validation are skipped and counted, over all blocks, in one
    warning, and a warning names, by index in `system`, every constraint
    that was never active at a hit or a refined point; the result is a
    lower approximation of the signature in the worst case, never an
    overclaim.
    """
    if seed is None:
        seed = DEFAULT_SEED
    split = _split(system)
    # Every block is restricted before any is probed, so an empty block
    # raises InfeasibleSystem before another block's interior search fails.
    restricted = [_restrict_affine(blk.system) for blk in split.blocks]
    warnings: list[str] = []
    block_data: list[tuple[Signature, dict[int, tuple]]] = []
    skipped = shot = 0
    never: list[int] = []
    for blk, (reduced, classes, origin, offset, columns) in zip(split.blocks, restricted):
        n = reduced.dim
        points = {n: np.zeros(n)}
        if n and reduced.constraints:
            warnings.extend(_lineality_warning(blk))
            ctx = _DimContext(reduced, classes)
            x0 = interior_point(reduced)
            log = _probe_faces(ctx, x0, _sampled_directions(n, samples, seed))
            points = log.points
            skipped += log.skipped
            shot += samples
            never.extend(
                blk.constraint_indices[origin[j]]
                for j in range(ctx.fs.m)
                if j not in log.ever_active
            )
        offset_f = np.array([float(e) for e in offset], dtype=float)
        columns_f = np.array([[float(e) for e in col] for col in columns], dtype=float)
        columns_f = columns_f.reshape(n, len(offset)).T
        block_data.append((
            Signature(tuple(points)),
            {d: tuple((offset_f + columns_f @ y).tolist()) for d, y in points.items()},
        ))

    if skipped:
        warnings.append(
            f"{skipped} of {shot} samples skipped: active set failed "
            "cross-validation near tolerance"
        )
    if never:
        warnings.append(
            f"constraint(s) {', '.join(map(str, sorted(never)))} never active at a "
            "boundary hit or refinement; faces on them may be missing"
        )
    witnesses = _combine_blocks(system.dim, split, block_data, 0.0)
    return VerificationReport(
        signature=Signature(tuple(witnesses)),
        method="probe",
        confidence=Confidence("probabilistic", samples, TOL_ACTIVE),
        witnesses=witnesses,
        warnings=tuple(warnings),
    )
