"""Builders that realize a prescribed facial dimension signature.

The core template intersects the unit ball with round cylinders sharing the
center: in R^d, the cylinder of index i (1 <= i <= d-1) is

    (x_{i+1} + c)^2 + x_{i+2}^2 + ... + x_d^2 <= r^2

written with 1-based coordinates.  Its matrix has the nonzero rows
template_rows(i, d), the ball's template_rows(0, d); the exact verifier
recognizes templates by the same rows.  With parameters satisfying the
exact margin conditions of boundary_disjointness_margins, the intersection
of the unit ball with any subset of cylinders has signature
{0} u {indices} u {d}: each cylinder contributes exactly one proper face
dimension, the cylinder boundaries stay pairwise disjoint inside the ball,
and the origin remains interior.  Signatures with min > 0 take free
coordinates appended last; complete signatures admit a logarithmic-size
variant made of dyadic ball blocks.  Sumset decompositions turn any
signature into a direct sum of such templates with fewer inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact_linalg import RVector, dot, mat_vec, rvector, vec_add, zero_vector
from .quadratics import ConvexQuadratic, QuadraticSystem, embed, evaluate
from .signatures import (
    DecompositionCapExceeded,
    DecompositionTree,
    Leaf,
    Signature,
    decompose_min_cost,
    shift,
    tree_cost,
    tree_leaves,
)


def template_margins(c: Fraction, r_sq: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """(excess, separation, (1 + c)^2 - r^2) for cylinder offset c, radius^2 r_sq.

    excess = r^2 - c^2 - 1 > 0 makes every cylinder-boundary point inside
    the unit ball push its pivot coordinate up; separation = excess^2 - 2c^2
    pushes it above sqrt(1/2), so two distinct pivot coordinates would
    exceed the ball; (1 + c)^2 - r^2 > 0 keeps each cylinder's touching
    point strictly inside the ball.
    """
    excess = r_sq - c * c - 1
    return excess, excess * excess - 2 * c * c, (1 + c) * (1 + c) - r_sq


def boundary_disjointness_margins(c: Fraction, r: Fraction) -> dict[str, Fraction]:
    """Exact margins whose joint positivity keeps cylinder boundaries apart.

    The template_margins of (c, r^2), with radius_gap = 1 + c - r in place of
    (1 + c)^2 - r^2 (the same sign for positive c and r).
    """
    c, r = Fraction(c), Fraction(r)
    excess, separation, _ = template_margins(c, r * r)
    return {"excess": excess, "separation": separation, "radius_gap": 1 + c - r}


@dataclass(frozen=True)
class ConstructionParams:
    """Cylinder offset c and radius r, validated by exact rational margins."""

    c: Fraction
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "r", Fraction(self.r))
        if self.c <= 0 or self.r <= 0:
            raise ValueError("construction parameters must be positive")
        margins = boundary_disjointness_margins(self.c, self.r)
        bad = [name for name, value in margins.items() if value <= 0]
        if bad:
            raise ValueError(f"construction margins not positive: {', '.join(bad)}")


def default_params() -> ConstructionParams:
    return ConstructionParams(c=Fraction(7, 10), r=Fraction(8, 5))


def template_rows(index: int, n: int) -> dict[int, dict[int, Fraction]]:
    """Nonzero rows of the template matrix of face dimension `index` in R^n:
    the identity on the last n - index coordinates.  Index 0 is the ball's."""
    one = Fraction(1)
    return {i: {i: one} for i in range(index, n)}


def build_ball(n: int) -> ConvexQuadratic:
    """The unit ball |x|^2 <= 1 in R^n."""
    if n < 1:
        raise ValueError("the ball needs at least one dimension")
    return ConvexQuadratic._psd_by_construction(template_rows(0, n), zero_vector(n), -1)


def build_cylinder(index: int, n: int, params: ConstructionParams) -> ConvexQuadratic:
    """Cylinder of face dimension `index` in R^n, centered like the ball."""
    if not 1 <= index <= n - 1:
        raise ValueError("cylinder index must lie strictly between 0 and n")
    a = list(zero_vector(n))
    a[index] = params.c
    return ConvexQuadratic._psd_by_construction(
        template_rows(index, n), a, params.c * params.c - params.r * params.r
    )


def _assemble(leaves, params: ConstructionParams, free: int = 0) -> QuadraticSystem:
    """Ball-and-cylinder blocks for leaves side by side, then free coordinates.

    Each leaf takes the next leaf.max coordinates: a unit ball and one
    cylinder per interior element on the leading max - min of them, the
    other min free.  Each constraint is embedded once, at its final offset.
    """
    n = sum(leaf.max for leaf in leaves) + free
    constraints = []
    offset = 0
    for leaf in leaves:
        m, d = leaf.min, leaf.max - leaf.min
        if d:
            constraints.append(embed(build_ball(d), n, offset))
        for i in leaf.elements[1:-1]:
            constraints.append(embed(build_cylinder(i - m, d, params), n, offset))
        offset += leaf.max
    return QuadraticSystem(
        dim=n, constraints=tuple(constraints), interior_witness=zero_vector(n)
    )


def build_ball_cylinder_system(
    sig: Signature, params: ConstructionParams | None = None
) -> QuadraticSystem:
    """Ball-and-cylinders system in R^(max sig) realizing sig exactly.

    Uses |sig| - 1 inequalities: one unit ball on the leading max - min
    coordinates, one cylinder per interior element, and min-many free
    trailing coordinates.  A singleton signature {n} yields the whole R^n.
    """
    return _assemble((sig,), params or default_params())


def build_complete_dyadic(n: int) -> QuadraticSystem:
    """Realize the complete signature {0..n} with ~log n ball blocks.

    Requires n = 2^K - 1; block k covers coordinates 2^(k-1)..2^k - 1
    (1-based) with a unit ball, so the K block signatures {0, 2^(k-1)} sum
    to {0..n}.
    """
    if n < 0 or (n + 1) & n != 0:
        raise ValueError("the dyadic construction needs n = 2^K - 1")
    leaves = [Signature.of(0, 1 << k) for k in range(n.bit_length())]
    return _assemble(leaves, default_params())


@dataclass(frozen=True)
class RealizationPlan:
    tree: DecompositionTree
    shift: int
    params: ConstructionParams
    total_inequalities: int


@dataclass(frozen=True)
class RealizationResult:
    system: QuadraticSystem
    plan: RealizationPlan
    warnings: tuple[str, ...] = field(default=())


def realize(
    sig: Signature,
    params: ConstructionParams | None = None,
    use_decomposition: bool = False,
    budget: int | None = None,
) -> RealizationResult:
    """Build a system with signature sig, optionally via sumset splitting.

    The signature is normalized to min 0, factored (when requested) into a
    minimum-cost sumset of leaves, each leaf realized as a ball-and-cylinder
    block, the blocks joined by direct sum, and min-many free coordinates
    appended last.  A decomposition that exceeds its cap falls back to the
    direct single-leaf build and says so in warnings.
    """
    params = params or default_params()
    warnings: list[str] = []
    m = sig.min
    base = shift(sig, -m)
    tree: DecompositionTree = Leaf(base)
    if use_decomposition and len(base) > 1:
        try:
            tree = decompose_min_cost(base, budget)
        except DecompositionCapExceeded as exc:
            warnings.append(f"decomposition skipped: {exc}")
    system = _assemble(tree_leaves(tree), params, m)
    plan = RealizationPlan(
        tree=tree, shift=m, params=params, total_inequalities=tree_cost(tree)
    )
    assert len(system.constraints) == plan.total_inequalities
    assert system.dim == sig.max
    return RealizationResult(system=system, plan=plan, warnings=tuple(warnings))


@dataclass(frozen=True)
class ExposingHalfspace:
    """Halfspace <normal, x> <= offset supporting a cylinder face."""

    normal: RVector
    offset: Fraction


def exposing_halfspace(
    index: int, n: int, params: ConstructionParams, point: RVector
) -> ExposingHalfspace:
    """Supporting halfspace exposing the cylinder face through `point`.

    The point must lie on the boundary of the index-i cylinder with its
    first i coordinates zero (both checked exactly); the face it exposes is
    point + span(e_1..e_i) intersected with the ball.
    """
    point = rvector(point)
    if len(point) != n:
        raise ValueError("point dimension mismatch")
    cylinder = build_cylinder(index, n, params)
    if any(point[j] != 0 for j in range(index)):
        raise ValueError("the face representative must have zero leading coordinates")
    if evaluate(cylinder, point) != 0:
        raise ValueError("point does not lie on the cylinder boundary")
    # Half the cylinder's gradient at the point.
    normal = vec_add(mat_vec(cylinder.A, point), cylinder.a)
    return ExposingHalfspace(normal=normal, offset=dot(normal, point))
