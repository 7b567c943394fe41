"""Template construction tests: margins, builders, realize, exposing halfspaces.

Expected values are frozen from hand computation with the default parameters
c = 7/10, r = 8/5:

    excess     = r^2 - c^2 - 1      = 256/100 - 49/100 - 100/100 = 107/100
    separation = excess^2 - 2 c^2   = 11449/10000 - 9800/10000   = 1649/10000
    radius_gap = 1 + c - r          = 17/10 - 16/10              = 1/10

and the cylinder's constant term is c^2 - r^2 = -207/100.
"""

import random
from fractions import Fraction

import pytest

from dense_form import dense
from facetforge.constructor import (
    ConstructionParams,
    ExposingHalfspace,
    RealizationPlan,
    boundary_disjointness_margins,
    build_ball,
    build_ball_cylinder_system,
    build_complete_dyadic,
    build_cylinder,
    default_params,
    exposing_halfspace,
    realize,
)
from facetforge.exact_linalg import dot
from facetforge.quadratics import QuadraticKind, classify, evaluate
from facetforge.signatures import Leaf, Signature, tree_leaves

F = Fraction


def test_margins_frozen_for_default_params():
    margins = boundary_disjointness_margins(F(7, 10), F(8, 5))
    assert margins == {
        "excess": F(107, 100),
        "separation": F(1649, 10000),
        "radius_gap": F(1, 10),
    }


def test_params_validation():
    p = default_params()
    assert (p.c, p.r) == (F(7, 10), F(8, 5))
    with pytest.raises(ValueError):
        ConstructionParams(c=1, r=1)  # excess = -1
    with pytest.raises(ValueError):
        ConstructionParams(c=F(7, 10), r=F(17, 10))  # radius_gap = 0
    with pytest.raises(ValueError):
        ConstructionParams(c=0, r=F(8, 5))
    # coercion from strings mirrors the JSON loader
    q = ConstructionParams(c="7/10", r="8/5")
    assert q == p


def test_build_ball_frozen():
    q = build_ball(2)
    assert dense(q) == ((F(1), F(0)), (F(0), F(1)))
    assert q.a == (F(0), F(0))
    assert q.alpha == F(-1)
    cls = classify(q)
    assert cls.kind is QuadraticKind.CYLINDER_BALL
    assert cls.signature.elements == (0, 2)
    with pytest.raises(ValueError):
        build_ball(0)


def test_build_cylinder_frozen():
    q = build_cylinder(1, 3, default_params())
    assert dense(q) == (
        (F(0), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    )
    assert q.a == (F(0), F(7, 10), F(0))
    assert q.alpha == F(-207, 100)
    assert evaluate(q, (F(0), F(0), F(0))) == F(-207, 100)
    cls = classify(q)
    assert cls.kind is QuadraticKind.CYLINDER_BALL
    assert cls.signature.elements == (1, 3)
    for bad in (0, 3):
        with pytest.raises(ValueError):
            build_cylinder(bad, 3, default_params())


def test_ball_cylinder_system_shape():
    for elements in [(0, 2, 5), (1, 3, 4), (0, 1, 2, 3), (0, 4)]:
        sig = Signature.of(*elements)
        system = build_ball_cylinder_system(sig)
        assert system.dim == sig.max
        assert len(system.constraints) == len(sig) - 1
        w = system.interior_witness
        assert all(evaluate(q, w) < 0 for q in system.constraints)


def test_ball_cylinder_system_singleton_is_free_space():
    system = build_ball_cylinder_system(Signature.of(3))
    assert system.dim == 3 and system.constraints == ()


def test_complete_dyadic_blocks():
    system = build_complete_dyadic(7)
    assert system.dim == 7
    assert len(system.constraints) == 3
    # block k is a unit ball on coordinates 2^k - 1 .. 2^(k+1) - 2
    supports = []
    for q in system.constraints:
        diag = tuple(j for j in range(7) if dense(q)[j][j] != 0)
        assert q.alpha == F(-1)
        supports.append(diag)
    assert supports == [(0,), (1, 2), (3, 4, 5, 6)]
    for bad in (2, 5, 6):
        with pytest.raises(ValueError):
            build_complete_dyadic(bad)


def test_realize_direct_shift_and_support():
    result = realize(Signature.of(2, 4, 5))
    system, plan = result.system, result.plan
    assert system.dim == 5
    assert len(system.constraints) == 2
    assert plan.shift == 2
    assert plan.total_inequalities == 2
    assert isinstance(plan.tree, Leaf)
    assert plan.tree.signature.elements == (0, 2, 3)
    assert result.warnings == ()
    # free coordinates sit last: constraints only touch the leading block
    for q in system.constraints:
        assert all(dense(q)[i][j] == 0 for i in range(5) for j in range(5) if max(i, j) >= 3)
        assert all(q.a[j] == 0 for j in range(3, 5))


def test_realize_with_decomposition_saves_inequalities():
    sig = Signature.of(0, 1, 2, 3)
    direct = realize(sig)
    split = realize(sig, use_decomposition=True)
    assert len(direct.system.constraints) == 3
    assert len(split.system.constraints) == 2
    leaves = tree_leaves(split.plan.tree)
    assert tuple(leaf.elements for leaf in leaves) == ((0, 1), (0, 2))
    # both leaves are pure balls, placed on disjoint coordinate blocks
    kinds = [classify(q).kind for q in split.system.constraints]
    assert kinds == [QuadraticKind.CYLINDER_BALL] * 2


def test_realize_budget_fallback_warns():
    sig = Signature.of(0, 33)
    result = realize(sig, use_decomposition=True)
    assert len(result.warnings) == 1
    assert "decomposition skipped" in result.warnings[0]
    assert isinstance(result.plan.tree, Leaf)
    assert len(result.system.constraints) == 1
    unlocked = realize(sig, use_decomposition=True, budget=33)
    assert unlocked.warnings == ()


def test_exposing_halfspace_axis_point():
    params = default_params()
    # touching point of cylinder 1 in R^2: (t + c)^2 = r^2 with t = 9/10
    point = (F(0), F(9, 10))
    h = exposing_halfspace(1, 2, params, point)
    assert h.normal == (F(0), F(8, 5))
    assert h.offset == F(36, 25)
    assert dot(h.normal, point) == h.offset


def test_exposing_halfspace_supports_feasible_set():
    params = default_params()
    n, index = 3, 1
    # slanted boundary point: z = 24/25 gives (y + c)^2 = r^2 * 16/25 exactly
    point = (F(0), F(29, 50), F(24, 25))
    h = exposing_halfspace(index, n, params, point)
    system = (build_ball(n), build_cylinder(index, n, params))
    assert evaluate(system[1], point) == 0
    assert dot(h.normal, point) == h.offset
    # the face extends along e_1, and the halfspace stays tight there
    shifted = (F(1, 8), point[1], point[2])
    assert dot(h.normal, shifted) == h.offset
    rng = random.Random(77)
    checked = 0
    while checked < 200:
        x = tuple(F(rng.randint(-8, 8), 8) for _ in range(n))
        if any(evaluate(q, x) > 0 for q in system):
            continue
        checked += 1
        gap = h.offset - dot(h.normal, x)
        assert gap >= 0
        if gap == 0:
            assert evaluate(system[1], x) == 0


def test_exposing_halfspace_rejects_bad_points():
    params = default_params()
    with pytest.raises(ValueError):
        exposing_halfspace(1, 2, params, (F(0),))  # wrong dimension
    with pytest.raises(ValueError):
        exposing_halfspace(1, 2, params, (F(1), F(9, 10)))  # leading coord nonzero
    with pytest.raises(ValueError):
        exposing_halfspace(1, 2, params, (F(0), F(1)))  # off the boundary
    with pytest.raises(ValueError):
        exposing_halfspace(2, 2, params, (F(0), F(9, 10)))  # index out of range
