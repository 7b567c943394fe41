"""Quadratics derived from checked ones, against the checking constructor.

embed, the verifier's _restrict_constraint and _restrict_affine, and the
ball and cylinder builders build through ConvexQuadratic._psd_by_construction,
which skips the symmetry and PSD checks.  Every quadratic that route builds
here, on seeded templates, permuted templates, direct sums and affine or
singleton restrictions, must equal the public ConvexQuadratic(...) of its
own nonzero rows: the public checks accept it, and ==, hash, repr and the
row order agree.  The JSON encoder that stopped re-wrapping Fractions is
compared with the old one, kept here verbatim.
"""

import json
import random
from fractions import Fraction

import pytest

from dense_form import dense
from facetforge import formats
from facetforge.constructor import build_ball, build_cylinder, default_params, realize
from facetforge.quadratics import (
    ConvexQuadratic,
    QuadraticKind,
    QuadraticSystem,
    classify,
    direct_sum,
    embed,
    evaluate,
)
from facetforge.signatures import Signature
from facetforge.verifier import _restrict_affine, _restrict_constraint, _support, blocks

F = Fraction


@pytest.fixture
def derived(monkeypatch):
    """Every quadratic _psd_by_construction builds while the test runs."""
    built = []
    build = ConvexQuadratic._psd_by_construction.__func__

    def record(cls, rows, a, alpha):
        q = build(cls, rows, a, alpha)
        built.append(q)
        return q

    monkeypatch.setattr(ConvexQuadratic, "_psd_by_construction", classmethod(record))
    return built


def assert_as_if_checked(q: ConvexQuadratic):
    ref = ConvexQuadratic(A=q.A, a=q.a, alpha=q.alpha)
    assert q == ref
    assert hash(q) == hash(ref)
    assert repr(q) == repr(ref)
    assert [(i, list(row.items())) for i, row in q.A.items()] == [
        (i, list(row.items())) for i, row in ref.A.items()
    ]


def random_psd(rng: random.Random, n: int) -> ConvexQuadratic:
    """B^T B from a few sparse rational rows, with a random a and alpha."""
    b = [[F(rng.choice((0, 0, 1, -2, 3)), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(rng.randint(0, n))]
    A = [[sum((r[i] * r[j] for r in b), F(0)) for j in range(n)] for i in range(n)]
    a = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
    return ConvexQuadratic(A=A, a=a, alpha=F(rng.randint(-5, 5), rng.randint(1, 3)))


def permuted(system: QuadraticSystem, perm) -> QuadraticSystem:
    """The system in coordinates y with y_k = x_perm[k], built publicly."""
    cons = tuple(
        ConvexQuadratic(A=[[A[i][j] for j in perm] for i in perm],
                        a=[q.a[i] for i in perm], alpha=q.alpha)
        for q in system.constraints for A in (dense(q),)
    )
    w = system.interior_witness
    return QuadraticSystem(system.dim, cons, None if w is None else [w[i] for i in perm])


def test_public_check_rejects_what_the_private_route_skips():
    # The comparison has teeth: the private route builds what it is given.
    for rows in ({0: {0: F(-1)}}, {0: {0: F(1), 1: F(2)}, 1: {0: F(2), 1: F(1)}},
                 {0: {0: F(1), 1: F(2)}, 1: {0: F(3), 1: F(1)}}):
        q = ConvexQuadratic._psd_by_construction(rows, (F(0),) * 2, -1)
        with pytest.raises(ValueError):
            assert_as_if_checked(q)


def test_builders_for_n_1_to_12(derived):
    params = default_params()
    for n in range(1, 13):
        assert_as_if_checked(build_ball(n))
        for index in range(1, n):
            assert_as_if_checked(build_cylinder(index, n, params))
    assert len(derived) == sum(range(1, 13))


def test_embed_at_every_offset(derived):
    rng = random.Random(1301)
    params = default_params()
    cases = [build_ball(d) for d in range(1, 5)]
    cases += [build_cylinder(i, d, params) for d in range(2, 6) for i in range(1, d)]
    cases += [random_psd(rng, rng.randint(1, 5)) for _ in range(40)]
    for q in cases:
        for n in range(q.dim, q.dim + 4):
            for offset in range(n - q.dim + 1):
                e = embed(q, n, offset)
                assert_as_if_checked(e)
                assert e.A == {offset + i: {offset + j: v for j, v in row.items()}
                               for i, row in q.A.items()}
    for q in derived:
        assert_as_if_checked(q)


def test_restrict_constraint_on_permuted_templates_and_direct_sums(derived):
    rng = random.Random(1302)
    systems = []
    for _ in range(12):
        top = rng.randint(2, 9)
        inner = rng.sample(range(1, top), rng.randint(0, top - 1))
        sig = Signature(tuple(sorted({0, top, *inner})))
        system = realize(sig, use_decomposition=rng.random() < 0.5).system
        systems.append(permuted(system, rng.sample(range(system.dim), system.dim)))
    for s, t in zip(systems, systems[1:]):
        systems.append(direct_sum(s, t))
    for system in systems:
        del derived[:]
        split = blocks(system)
        assert len(derived) == len(system.constraints)
        for q in derived:
            assert_as_if_checked(q)
        for blk in split.blocks:
            for k, q in zip(blk.constraint_indices, blk.system.constraints):
                assert q == _restrict_constraint(system.constraints[k], blk.indices)
        # Any sorted index set holding the support, and any at all.
        for q in system.constraints:
            support = _support(q)
            more = support | set(rng.sample(range(system.dim), rng.randint(0, system.dim)))
            anywhere = rng.sample(range(system.dim), rng.randint(0, system.dim))
            for idx in (sorted(support), sorted(more), sorted(anywhere)):
                assert_as_if_checked(_restrict_constraint(q, tuple(idx)))


def affine_quadratic(rng: random.Random, n: int, nullity: int) -> ConvexQuadratic:
    """(x - x0)^T A (x - x0) <= 0 with A = P^T D P of the given nullity: an
    affine subspace of dimension nullity through x0, a point when 0."""
    p = [[F(1) if i == j else (F(rng.randint(-3, 3), rng.randint(1, 4)) if j > i else F(0))
          for j in range(n)] for i in range(n)]
    p = [p[k] for k in rng.sample(range(n), n)]
    d = [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n - nullity)]
    A = [[sum((p[t][i] * d[t] * p[t][j] for t in range(n - nullity)), F(0)) for j in range(n)]
         for i in range(n)]
    x0 = [F(rng.randint(-2, 2), 2) for _ in range(n)]
    Ax0 = [sum((A[i][j] * x0[j] for j in range(n)), F(0)) for i in range(n)]
    return ConvexQuadratic(A=A, a=[-e for e in Ax0],
                           alpha=sum((x * y for x, y in zip(x0, Ax0)), F(0)))


@pytest.mark.parametrize("shape", ["affine", "singleton"])
def test_restrict_affine_on_seeded_systems(derived, shape):
    rng = random.Random(1303 if shape == "affine" else 1304)
    expected = QuadraticKind.AFFINE_SUBSPACE if shape == "affine" else QuadraticKind.SINGLETON
    reduced = 0
    for _ in range(40):
        n = rng.randint(2, 6)
        q0 = affine_quadratic(rng, n, rng.randint(1, n - 1) if shape == "affine" else 0)
        cls0 = classify(q0)
        assert cls0.kind is expected
        # Others strictly negative at the minimizer q0 restricts to, so
        # their restrictions are never empty.
        others = []
        for _ in range(rng.randint(1, 3)):
            q = random_psd(rng, n)
            shift = evaluate(q, cls0.minimizer) + F(rng.randint(1, 4), rng.randint(1, 3))
            others.append(ConvexQuadratic(A=q.A, a=q.a, alpha=q.alpha - shift))
        del derived[:]
        system, classes, origin, _, columns = _restrict_affine(
            QuadraticSystem(n, (q0, *others)))
        assert len(derived) == len(others)
        for q in derived:
            assert_as_if_checked(q)
            assert q.dim == len(columns) == cls0.nullity
        assert set(system.constraints) <= set(derived)
        assert [classify(q) for q in system.constraints] == classes
        assert 0 not in origin
        reduced += len(system.constraints)
    # A singleton leaves R^0, where every restricted constraint is the whole
    # space and is dropped.
    assert (reduced > 0) == (shape == "affine")


# ---------------------------------------------------------------------------
# The JSON encoder


def reference_rational_to_json(x: Fraction) -> str:
    return str(Fraction(x))


def reference_system_to_json(s: QuadraticSystem) -> dict:
    vec = lambda v: [reference_rational_to_json(e) for e in v]  # noqa: E731
    return {
        "dim": s.dim,
        "constraints": [
            {"A": [vec(row) for row in dense(q)], "a": vec(q.a),
             "alpha": reference_rational_to_json(q.alpha)}
            for q in s.constraints
        ],
        "interior_witness": None if s.interior_witness is None else vec(s.interior_witness),
    }


def test_rational_to_json_matches_the_old_encoder():
    rng = random.Random(1305)
    values = [0, 1, -1, 10**40, -(10**40) - 7, True, False, F(0), F(-3, 7), F(10**30 + 1, 10**29)]
    values += [F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(500)]
    values += [rng.randint(-10**12, 10**12) for _ in range(200)]
    for x in values:
        assert formats.rational_to_json(x) == reference_rational_to_json(x)


def test_system_to_json_matches_the_old_encoder():
    rng = random.Random(1306)
    systems = [realize(Signature(tuple(range(top + 1)))).system for top in (0, 1, 5, 12)]
    systems += [realize(Signature((0, 3, 7, 8)), use_decomposition=True).system]
    systems += [QuadraticSystem(n, tuple(random_psd(rng, n) for _ in range(3)))
                for n in range(1, 6)]
    for s in systems:
        new = formats.dumps(formats.system_to_json(s))
        assert new == json.dumps(reference_system_to_json(s), indent=2, sort_keys=True) + "\n"
        assert formats.system_from_json(json.loads(new)) == s
