"""The probe path block by block.

probe_signature probes each variable-disjoint block on its own and combines
the block reports as the exact path does: the sumset of the block
signatures, shifted by the free coordinates.  Within a block, a constraint
tuple of two or more is refined only when its sub-tuples one smaller are
covered.  Checked here: sums whose cross-block faces a whole-system pruned
refinement missed, seeded direct sums against the sumset of their parts,
the absence of size-3 refinement on a template, and warnings that name the
caller's coordinates and constraints.
"""

import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

import facetforge.verifier as verifier
from facetforge.cli import main
from facetforge.constructor import build_ball, realize
from facetforge.formats import dumps, system_to_json
from facetforge.quadratics import ConvexQuadratic, QuadraticSystem, direct_sum, embed
from facetforge.signatures import Signature
from facetforge.verifier import minimal_face_dim_at, probe_signature


def _quadratic(n, diag=(), cross=(), a=(), alpha=0):
    """sum diag[i] x_i^2 + sum 2 w x_i x_j + 2 sum a[i] x_i + alpha <= 0,
    from {i: d}, {(i, j): w} and {i: a_i}."""
    A = [[F(0)] * n for _ in range(n)]
    for i, d in dict(diag).items():
        A[i][i] = F(d)
    for (i, j), w in dict(cross).items():
        A[i][j] = A[j][i] = F(w)
    vec = [F(0)] * n
    for i, v in dict(a).items():
        vec[i] = F(v)
    return ConvexQuadratic(A=tuple(map(tuple, A)), a=tuple(vec), alpha=F(alpha))


def _ball_halfspace_cylinder(halfspace, cylinder):
    """Unit ball in (x0, x1, x2) cut by a halfspace, plus the unit ball in
    (x3..x6) and one cylinder there: {0, 2, 3} + {0, 1, 4}."""
    ball3 = embed(build_ball(3), 7, 0)
    ball4 = embed(build_ball(4), 7, 3)
    return QuadraticSystem(dim=7, constraints=(ball3, halfspace, ball4, cylinder))


# Cylinders x3^2 + (x_k + 7/10)^2 + x6^2 <= 64/25, free along the other of x4, x5.
def _cylinder(k):
    return _quadratic(7, {3: 1, k: 1, 6: 1}, a={k: F(7, 10)}, alpha=F(49, 100) - F(64, 25))


@pytest.mark.parametrize(
    "halfspace, cylinder, seed",
    [
        # x0 + x2 <= 1
        (_quadratic(7, a={0: F(1, 2), 2: F(1, 2)}, alpha=-1), _cylinder(5), 1897975501),
        # x2 >= -1/2
        (_quadratic(7, a={2: F(-1, 2)}, alpha=-F(1, 2)), _cylinder(4), 1525220998),
    ],
)
def test_plain_verify_finds_faces_across_blocks(tmp_path, capsys, halfspace, cylinder, seed):
    # the (ball, cylinder) pair spans two blocks and refines only to points
    # outside the halfspace, so whole-system pruning lost dimension 1
    system = _ball_halfspace_cylinder(halfspace, cylinder)
    path = tmp_path / "sum.json"
    path.write_text(dumps(system_to_json(system)))
    argv = ["verify", str(path), "--samples", "2000", "--seed", str(seed)]
    assert main(argv + ["--expect", "0,1,2,3,4,6,7"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "probe"


def _part(rng):
    """A template, one quadratic of a nondegenerate class, or a ball cut
    by a halfspace, in a few dimensions."""
    kind = rng.choice(["template", "halfspace", "cylinder", "paraboloid", "ball_halfspace"])
    n = rng.randint(2, 4)
    if kind == "template":
        return realize(Signature.of(n, *rng.sample(range(n), rng.randint(1, n)))).system
    if kind == "halfspace":
        q = _quadratic(n, a={0: 1, n - 1: -1}, alpha=-1)
    elif kind == "cylinder":
        # an ellipse in (x0, x1) with a cross term, free along the rest
        q = _quadratic(n, {0: 2, 1: 2}, {(0, 1): 1}, {1: 1}, -3)
    elif kind == "paraboloid":
        q = _quadratic(n, {0: 1}, a={1: F(-1, 2)})
    else:
        cut = _quadratic(n, a={n - 1: F(1, 2)}, alpha=-F(rng.randint(1, 3), 4))
        return QuadraticSystem(dim=n, constraints=(build_ball(n), cut))
    return QuadraticSystem(dim=n, constraints=(q,))


def test_sum_signature_is_the_sumset_of_its_parts():
    rng = random.Random(901)
    for _ in range(8):
        s, t = _part(rng), _part(rng)
        seed = rng.randint(0, 10**6)
        system = direct_sum(s, t)
        report = probe_signature(system, samples=600, seed=seed)
        parts = [probe_signature(p, samples=600, seed=seed).signature for p in (s, t)]
        want = {x + y for x in parts[0] for y in parts[1]}
        assert set(report.signature) == want, (s, t, seed)
        for d, w in report.witnesses.items():
            assert minimal_face_dim_at(system, w) == d


def test_template_refines_no_triples(monkeypatch):
    sizes = []
    batch = verifier._gauss_newton_batch

    def counted(fs, rows, starts):
        sizes.extend([rows.shape[1]] * len(rows))
        return batch(fs, rows, starts)

    monkeypatch.setattr(verifier, "_gauss_newton_batch", counted)
    sig = Signature.of(*range(13))
    report = probe_signature(realize(sig).system, samples=2000, seed=42)
    assert report.signature == sig
    # no three cylinder boundaries meet, and no two inside the ball
    assert sizes and 3 not in sizes


def test_never_active_warning_names_the_callers_index():
    # (unit disk in (x0, x1), radius-2 disk and unit disk in (x2, x3)): the
    # radius-2 disk, constraint 1, is constraint 0 of its block
    big = _quadratic(4, {2: 1, 3: 1}, alpha=-4)
    system = QuadraticSystem(
        dim=4,
        constraints=(embed(build_ball(2), 4, 0), big, embed(build_ball(2), 4, 2)),
    )
    report = probe_signature(system, samples=300, seed=2)
    assert report.signature.elements == (0, 2, 4)
    assert [w for w in report.warnings if "never active" in w] == [
        "constraint(s) 1 never active at a boundary hit or refinement; "
        "faces on them may be missing"
    ]


def test_lineality_warning_names_the_callers_coordinates():
    # the plane x0 = x1, then two slabs along (1, 1) in (x2, x3)
    plane = _quadratic(4, {0: 1, 1: 1}, {(0, 1): -1})
    slab = _quadratic(4, {2: 1, 3: 1}, {(2, 3): -1}, alpha=-1)
    shifted = _quadratic(4, {2: 1, 3: 1}, {(2, 3): -1}, {2: F(-1, 2), 3: F(1, 2)})
    system = QuadraticSystem(dim=4, constraints=(plane, slab, shifted))
    report = probe_signature(system, samples=200, seed=3)
    assert [w for w in report.warnings if "unbounded" in w] == [
        "block on coordinates (2, 3) is unbounded along 1 direction(s); "
        "probe coverage may be incomplete"
    ]
    assert set(report.signature) == {2, 3}
    for d, w in report.witnesses.items():
        assert np.isfinite(w).all() and minimal_face_dim_at(system, w) == d
