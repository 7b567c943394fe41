"""Exact path at larger n: witness checks and cross-checks up to n = 32.

Expected signatures come from how each system is built (template theory,
the seven classes of a single quadratic, sumsets for direct sums), and every
witness is re-read with minimal_face_dim_at.  The probe path is
cross-checked against the exact path on the same systems, beyond its own
acceptance range.  The half-space and paraboloid-cylinder witnesses are
pinned to the two separate branches their shared formula replaced, kept
here verbatim.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np
import pytest

import facetforge
from facetforge.constructor import realize
from facetforge.exact_linalg import dot, vec_add, vec_scale
from facetforge.quadratics import (
    ConvexQuadratic,
    QuadraticKind,
    QuadraticSystem,
    classify,
    direct_sum,
    evaluate,
)
from facetforge.signatures import Signature, minkowski_sum
from facetforge.verifier import (
    ProbeMismatch,
    _dim_context,
    _single_constraint_block,
    exact_signature,
    minimal_face_dim_at,
    probe_signature,
)


def test_witness_check_survives_optimized_python():
    # python -O strips assert statements; a wrong template witness must still
    # stop the exact path.
    script = """
from fractions import Fraction
import facetforge.verifier as v
from facetforge.constructor import realize
from facetforge.signatures import Signature
original = v._match_ball_cylinder_template
def wrong_witness(system):
    sig, witnesses = original(system)
    witnesses[0] = (Fraction(5),) * system.dim
    return sig, witnesses
v._match_ball_cylinder_template = wrong_witness
v.exact_signature(realize(Signature.of(0, 2, 4)).system)
"""
    src = str(Path(facetforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "witness for dimension 0 violates constraint 0" in done.stderr


def _class_quadratic(rng, kind, k):
    """A single quadratic of one nonempty class in R^k, with its signature.

    A = B^T D B for a unit upper triangular integer B and D = diag(1, ..., 1,
    0, ..., 0) of rank r, so A has off-diagonal entries and nullity k - r.
    """
    b = [[1 if i == j else rng.randint(-2, 2) * (j > i) for j in range(k)] for i in range(k)]

    def form(r):
        return [[sum(b[t][i] * b[t][j] for t in range(r)) for j in range(k)] for i in range(k)]

    zero = [0] * k
    if kind == "full":
        return ConvexQuadratic(A=form(0), a=zero, alpha=-1), Signature.of(k)
    if kind == "halfspace":
        return ConvexQuadratic(A=form(0), a=b[0], alpha=rng.randint(-3, 3)), Signature.of(k - 1, k)
    if kind == "singleton":
        return ConvexQuadratic(A=form(k), a=zero, alpha=0), Signature.of(0)
    r = rng.randint(1, k - 1)
    if kind == "affine":
        return ConvexQuadratic(A=form(r), a=zero, alpha=0), Signature.of(k - r)
    if kind == "cylinder":
        return ConvexQuadratic(A=form(r), a=zero, alpha=-1), Signature.of(k - r, k)
    # Row k-1 of B lies outside the span of rows 0..r-1, the range of A.
    assert kind == "paraboloid"
    return ConvexQuadratic(A=form(r), a=b[k - 1], alpha=0), Signature.of(k - r - 1, k)


def _separate_flat_witnesses(q):
    """The half-space and paraboloid-cylinder witness branches, verbatim."""
    n = q.dim
    cls = classify(q)
    if cls.kind is QuadraticKind.HALF_SPACE:
        norm_sq = dot(q.a, q.a)
        boundary = vec_scale(-q.alpha / (2 * norm_sq), q.a)
        interior = vec_scale((-q.alpha - 1) / (2 * norm_sq), q.a)
        return {n - 1: boundary, n: interior}
    assert cls.kind is QuadraticKind.PARABOLOID_CYLINDER
    a_null = cls.null_component
    norm_sq = dot(a_null, a_null)
    boundary = vec_scale(-q.alpha / (2 * norm_sq), a_null)
    interior = vec_add(boundary, vec_scale(Fraction(-1, 1) / (2 * norm_sq), a_null))
    return {cls.nullity - 1: boundary, n: interior}


def test_flat_witnesses_equal_the_separate_branches():
    rng = random.Random(1717)
    for _ in range(60):
        kind = rng.choice(("halfspace", "paraboloid"))
        q, sig = _class_quadratic(rng, kind, rng.randint(2, 7))
        weight = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        q = ConvexQuadratic(A=q.A, a=[weight * e for e in q.a], alpha=alpha)
        block_sig, witnesses = _single_constraint_block(q)
        expected = _separate_flat_witnesses(q)
        assert block_sig == sig
        assert list(witnesses.items()) == list(expected.items()), q


def _cases_up_to_n_16():
    """Seeded systems of dimension at most 16 with their signatures."""
    rng = random.Random(1616)
    cases = []
    for n in (12, 14, 16):
        for use_decomposition in (False, True):
            sig = Signature.of(n, *rng.sample(range(n), rng.randint(1, n)))
            cases.append((realize(sig, use_decomposition=use_decomposition).system, sig))
    for kind in ("full", "halfspace", "singleton", "affine", "cylinder", "paraboloid"):
        k = rng.randint(2, 6)
        n = rng.randint(4, 16 - k)
        sig = Signature.of(n, *rng.sample(range(n), rng.randint(1, n)))
        q, q_sig = _class_quadratic(rng, kind, k)
        system = direct_sum(realize(sig).system, QuadraticSystem(dim=k, constraints=(q,)))
        cases.append((system, minkowski_sum(sig, q_sig)))
    return cases


def _cases_up_to_n_32():
    """Seeded systems of dimension at most 32 with their signatures."""
    rng = random.Random(3232)
    cases = []
    for n in (20, 24, 32):
        for use_decomposition in (False, True):
            sig = Signature.of(n, *rng.sample(range(n), rng.randint(1, n)))
            result = realize(sig, use_decomposition=use_decomposition, budget=32)
            cases.append((result.system, sig))
    for kind in ("full", "halfspace", "singleton", "affine", "cylinder", "paraboloid"):
        k = rng.randint(2, 8)
        n = rng.randint(16, 32 - k)
        sig = Signature.of(n, *rng.sample(range(n), rng.randint(1, n)))
        q, q_sig = _class_quadratic(rng, kind, k)
        system = direct_sum(realize(sig).system, QuadraticSystem(dim=k, constraints=(q,)))
        cases.append((system, minkowski_sum(sig, q_sig)))
    return cases


def _large_value_cases():
    """Systems whose f is about 1e24 or 1e8 at its exact witnesses, where a
    float evaluation misreads which constraints are active."""
    def single(A, a, alpha):
        return QuadraticSystem(dim=len(a), constraints=(ConvexQuadratic(A=A, a=a, alpha=alpha),))

    return [
        (single([[3]], [0], -(10**24 + 7)), Signature.of(0, 1)),
        (single([[1, 0], [0, 0]], [0, 0], -78000007), Signature.of(1, 2)),
    ]


def _dim_or_fault(read, system, x):
    try:
        return read(system, x)
    except (ValueError, ProbeMismatch) as exc:
        return type(exc).__name__


def _dim_from_exact_values(system, x):
    """minimal_face_dim_at with every f_j(x) summed exactly."""
    ctx = _dim_context(system)
    pt = np.array([float(e) for e in x])
    f = np.array([float(min(max(evaluate(q, x), -1), 1)) for q in system.constraints])
    dims = ctx.measure_batch(pt[None, :], f[:, None])[1]
    if dims[0] < 0:
        raise ProbeMismatch("cross-validation failed")
    return int(dims[0])


def test_exact_points_read_as_if_every_value_were_exact():
    # minimal_face_dim_at sums f_j(x) exactly only where the float value is
    # within its rounding error of +-TOL_ACTIVE.  Points of c x^2 + d y^2 <= R
    # with R up to 1e24 whose f is within a few TOL_ACTIVE of 0 and +-TOL_ACTIVE
    # must read as with every value exact.
    rng = random.Random(2424)
    tol = Fraction(1, 10**8)
    for _ in range(150):
        R = 10 ** rng.randint(0, 24) + rng.randint(0, 99)
        c, d = rng.randint(1, 9), rng.randint(0, 3)
        q = ConvexQuadratic(A=[[c, 0], [0, d]], a=[0, 0], alpha=-R)
        system = QuadraticSystem(dim=2, constraints=(q,))
        denominator = 2**rng.randint(40, 120)
        x0 = Fraction(isqrt(R * denominator**2 // c), denominator)
        # move x0 so that f lands near a chosen multiple of TOL_ACTIVE
        target = rng.choice([-2, -1, 0, 1, 2]) * tol + rng.randint(-3, 3) * tol / 4
        x0 += (target - evaluate(q, (x0, Fraction(0)))) / (2 * c * x0) if x0 else 0
        x = (x0, Fraction(0))
        assert _dim_or_fault(minimal_face_dim_at, system, x) == _dim_or_fault(
            _dim_from_exact_values, system, x)


def test_an_exact_point_past_float_range_reads_infeasible():
    # f is about 1e400 at x: its exact sum, clamped, still reads infeasible.
    ball = QuadraticSystem(dim=1, constraints=(ConvexQuadratic(A=[[1]], a=[0], alpha=-1),))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not feasible"):
        minimal_face_dim_at(ball, (Fraction(10**200),))


def test_exact_path_cross_checked_up_to_n_16():
    for system, expected in _cases_up_to_n_16() + _large_value_cases():
        assert system.dim <= 16
        report = exact_signature(system)
        assert report.signature == expected
        for d, w in report.witnesses.items():
            assert minimal_face_dim_at(system, w) == d


def test_exact_path_cross_checked_up_to_n_32():
    for system, expected in _cases_up_to_n_32():
        assert system.dim <= 32
        report = exact_signature(system)
        assert report.signature == expected
        for d, w in report.witnesses.items():
            assert minimal_face_dim_at(system, w) == d


def _check_probe_against_exact(cases):
    """The probe, past its acceptance range, gives the exact signature with
    no warning, and each of its witnesses reads back its own dimension."""
    for system, expected in cases:
        report = probe_signature(system, 2000, 7)
        assert report.signature == exact_signature(system).signature == expected
        assert report.warnings == ()
        for d, w in report.witnesses.items():
            assert minimal_face_dim_at(system, w) == d


def test_probe_path_cross_checked_up_to_n_16():
    _check_probe_against_exact(_cases_up_to_n_16())


def test_probe_path_cross_checked_up_to_n_32():
    _check_probe_against_exact(_cases_up_to_n_32())
