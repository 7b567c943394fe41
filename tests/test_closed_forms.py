"""The two closed forms pinned to the searches they replaced.

lower_bound's greedy walk is compared with the iterative-deepening DFS it
replaced, and _rational_sqrt_below's integer square root with the float
countdown it replaced; both references are kept here verbatim.  The float
ladders could return a pick that missed their own gap bound, so the integer
ladder must equal a reference only where the reference's pick meets it, and
must meet it everywhere.  Exact verify of two 1-D intervals on which the
countdown never finished runs in a subprocess with a timeout.
"""

import json
import math
import os
import random
import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

import facetforge
from facetforge.signatures import (
    LowerBoundCertificate,
    Signature,
    check_certificate,
    lower_bound,
)
from facetforge.quadratics import ConvexQuadratic, QuadraticSystem, classify, evaluate
from facetforge.verifier import (
    TOL_ACTIVE,
    _fraction_sqrt,
    _rational_sqrt_below,
    exact_signature,
)

GAP_BOUND = Fraction(0.01 * TOL_ACTIVE)


def _dfs_lower_bound(sig: Signature) -> LowerBoundCertificate:
    """The replaced iterative-deepening DFS, verbatim."""
    n = sig.max
    rest = [e for e in sig.elements if e != n]
    if not rest:
        return LowerBoundCertificate(n=n, ds=())

    def max_below(bound: int) -> int | None:
        i = bisect_left(rest, bound) - 1
        return rest[i] if i >= 0 else None

    for depth in range(1, len(sig)):
        seen: set[tuple[int, int, int]] = set()

        def dfs(prefix: list[int], prev_d: int, lower: int, left: int):
            u = max_below(lower)
            if u is None:
                return list(prefix)
            if left == 0:
                return None
            for d in range(u, min(prev_d, n - 1) + 1):
                nxt = max(0, lower + d - n)
                state = (len(prefix) + 1, d, nxt)
                if state in seen:
                    continue
                seen.add(state)
                prefix.append(d)
                found = dfs(prefix, d, nxt, left - 1)
                prefix.pop()
                if found is not None:
                    return found
            return None

        ds = dfs([], n - 1, n, depth)
        if ds is not None:
            cert = LowerBoundCertificate(n=n, ds=tuple(ds))
            assert check_certificate(sig, cert)
            return cert
    raise AssertionError("unreachable: the elementwise certificate always exists")


def _countdown_sqrt_below(target_sq: Fraction, scale: float) -> Fraction:
    """The replaced countdown, verbatim."""
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


def test_walk_equals_dfs_on_every_signature_up_to_12():
    for bits in range(1, 1 << 13):
        sig = Signature(tuple(e for e in range(13) if bits >> e & 1))
        assert lower_bound(sig).ds == _dfs_lower_bound(sig).ds, sig


def test_walk_equals_dfs_on_seeded_signatures_up_to_64():
    rng = random.Random(707)
    for _ in range(2000):
        top = rng.randint(13, 64)
        inner = rng.sample(range(top), rng.randint(0, top))
        sig = Signature.of(top, *inner)
        assert lower_bound(sig).ds == _dfs_lower_bound(sig).ds, sig


def _meets_bound(t: Fraction, target: Fraction, scale: float) -> bool:
    """t^2 < target with (target - t^2) * scale within 1% of TOL_ACTIVE."""
    return t * t < target and (target - t * t) * Fraction(scale) <= GAP_BOUND


def _check_pick(target: Fraction, scale: float, reference) -> bool:
    """Check the pick's invariants; True when it was compared with reference.

    The pick is the exact root of a rational square and otherwise meets the
    gap bound.  It equals the reference's pick wherever that meets the bound.
    """
    t = _rational_sqrt_below(target, Fraction(scale))
    if _fraction_sqrt(target) is not None:
        assert t * t == target, target
    else:
        assert _meets_bound(t, target, scale), (target, scale)
    ref = reference(target, scale)
    if ref * ref == target or _meets_bound(ref, target, scale):
        assert t == ref, (target, scale)
        return True
    return False


def test_isqrt_equals_countdown_on_small_targets():
    rng = random.Random(708)
    for _ in range(2000):
        den = rng.randint(1, 1000)
        target = Fraction(rng.randint(1, 4 * den - 1), den)
        scale = 10 ** rng.uniform(-3, 3)
        assert _check_pick(target, scale, _countdown_sqrt_below)
    for _ in range(200):
        # target * 2^96 just below a square k^2 whose root the float guess hits
        k = rng.randrange(1 << 40, 1 << 49)
        target = Fraction(k * k * 10**6 - 1, 10**6 << 96)
        assert _check_pick(target, 1.0, _countdown_sqrt_below)
    for target in (Fraction(2), Fraction(3), Fraction(1, 3), Fraction(10**6 + 1, 10**6)):
        for scale in (1e-3, 1.0, 1e3):
            assert _check_pick(target, scale, _countdown_sqrt_below)


def _bisect_sqrt_below(target_sq: Fraction, scale: float) -> Fraction:
    """The same ladder, each k found by bisection instead of a countdown."""
    exact = _fraction_sqrt(target_sq)
    if exact is not None:
        return exact
    tf = math.sqrt(float(target_sq))
    for shift_bits in (48, 64, 96, 128):
        prec = 1 << shift_bits
        lo, hi = 0, math.floor(tf * prec) + 1  # k = lo passes, k = hi is excluded
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if Fraction(mid, prec) ** 2 < target_sq else (lo, mid)
        t = Fraction(lo, prec)
        if float(target_sq - t * t) * scale <= 0.01 * TOL_ACTIVE:
            return t
    return t


def test_isqrt_equals_bisection_where_the_countdown_hangs():
    rng = random.Random(709)
    cases = [(Fraction(4478744787), 6.1), (Fraction(2), 1e12), (Fraction(10**24 + 7, 3), 1.0)]
    for _ in range(200):
        target = Fraction(rng.randint(10**6, 10**12), rng.randint(1, 9))
        cases.append((target, 10 ** rng.uniform(0, 12)))
    # The float guess holds 53 bits, so past about 2^48 the reference cannot
    # close its gap and returns a 128-bit pick that misses the bound: 112 of
    # these 203 cases.  The integer ladder refines further instead.
    compared = [_check_pick(target, scale, _bisect_sqrt_below) for target, scale in cases]
    assert 0 < sum(compared) < len(cases)


def test_isqrt_keeps_49_bits_where_the_first_precisions_give_zero():
    # Below the 128-bit step a nonzero pick could be off by most of itself;
    # the doubling ladder keeps the relative gap below 2^-46.
    for target in (Fraction(2, 10**40), Fraction(1, 3 * 10**60), Fraction(7, 2**301)):
        t = _rational_sqrt_below(target, Fraction(1))
        assert 0 < target - t * t <= target / 2**46, target


def test_curved_witness_residual_within_one_percent_of_tolerance():
    # A ball on the line and a cylinder in R^2 whose crossing parameters
    # need more bits than a float guess holds; the float-guided ladder left
    # f = -1.1e8 and f = -1.26e-8 at their boundary witnesses.
    cases = [
        ConvexQuadratic(A=[[3]], a=[0], alpha=-(10**24 + 7)),
        ConvexQuadratic(A=[[1, 0], [0, 0]], a=[0, 0], alpha=-78000007),
    ]
    for q in cases:
        report = exact_signature(QuadraticSystem(dim=q.dim, constraints=(q,)))
        boundary = report.witnesses[classify(q).proper_face_dim]
        assert -GAP_BOUND <= evaluate(q, boundary) <= 0, q


def _exact_verify(tmp_path, alpha: str, a_sq: str):
    data = {
        "dim": 1,
        "constraints": [{"A": [[a_sq]], "a": ["0"], "alpha": alpha}],
        "interior_witness": None,
    }
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(data))
    src = str(Path(facetforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "facetforge.cli", "verify", str(path), "--expect", "0,1"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["method"] == "exact" and report["signature"] == [0, 1]
    for point in report["witnesses"].values():
        x = Fraction(point[0])
        assert Fraction(a_sq) * x * x + Fraction(alpha) <= 0


def test_exact_verify_of_interval_with_large_radius_finishes(tmp_path):
    # 6 x^2 <= 26872468722: the crossing is sqrt(4478744787), scale 6
    _exact_verify(tmp_path, "-26872468722", "6")


def test_exact_verify_of_interval_with_large_scale_finishes(tmp_path):
    # 10^12 x^2 <= 2 * 10^12: the crossing is sqrt(2), scale 10^12
    _exact_verify(tmp_path, "-2000000000000", "1000000000000")
