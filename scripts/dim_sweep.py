"""Time the template {0..n} through realize, exact_signature, classify of
every constraint (the exact core's per-constraint step), JSON encoding
(system_to_json and formats.dumps), JSON decoding (json.loads and
system_from_json), minimal_face_dim_at on every exact witness,
probe_signature (2000 samples, seed 42) and its float-kernel layers, and
the decomposition search decompose_min_cost on {0..n} at budget n.  It
also times probe_signature on the three-face template {0, n//2, n}
(2000 samples, seed 42), which misses dimensions, so its refinement runs
until no tuple size left can add one; on {0..n} it settles before any
pair is tried.  The
layers are the 2000 ray directions (_sampled_directions), their boundary
hits from the probe's interior point (_FloatSystem.ray_exit) and the face
measurement of those hits (_DimContext.measure_batch), the last with the
context's direction spaces already computed, so it times the grouping and
the +-eps probes.  Every hit of {0..n} lies on a face of dimension 0 or n,
where no direction is probed, so the sweep also times probe_signature
(2000 samples, seed 42) and the face measurement of the same rays' hits on
the dense halfspace {x : 2<1, x> <= 1}, signature {n-1, n}, where every hit
has n - 1 face directions.

    PYTHONPATH=src python3 scripts/dim_sweep.py [n ...]

Prints one JSON object: for each n (default 8 16 24 32 48 64 96 128) the best wall
time of 3 calls of each step, in seconds, all in one process, and whether
the certified signature is {0..n}, the encoded text is what
json.dumps(indent=2, sort_keys=True) writes, decoding it gives back an
equal system, every witness reads back its own dimension, the probe finds
{0..n}, the probe of {0, n//2, n} finds that signature, the probe of the
halfspace finds {n-1, n} and the decomposition's cost meets the lower
bound.  Each
minimal_face_dim_at call gets a freshly decoded system, so the
face-measurement context cached on a system is built in every call.  The
default sizes take about five minutes on a 2-core machine, most of it in
JSON decoding at n = 96 and 128.
"""

import json
import sys
import time

import numpy as np

from facetforge import formats
from facetforge.constructor import realize
from facetforge.quadratics import ConvexQuadratic, QuadraticSystem, classify
from facetforge.signatures import Signature, decompose_min_cost, lower_bound, tree_cost
from facetforge.verifier import (
    _DimContext,
    _restrict_affine,
    _sampled_directions,
    exact_signature,
    interior_point,
    minimal_face_dim_at,
    probe_signature,
)

REPEATS = 3


def _best(fn, fresh=lambda: None):
    """fn(fresh()) REPEATS times, fresh() untimed; the last output and the
    least wall time."""
    best = float("inf")
    for _ in range(REPEATS):
        arg = fresh()
        start = time.perf_counter()
        out = fn(arg)
        best = min(best, time.perf_counter() - start)
    return out, round(best, 4)


def _to_json(system):
    return formats.dumps(formats.system_to_json(system))


def _from_json(text):
    return formats.system_from_json(json.loads(text))


def main(sizes):
    sweep = {}
    for n in sizes:
        sig = Signature(tuple(range(n + 1)))
        system, t_realize = _best(lambda _: realize(sig).system)
        report, t_exact = _best(lambda _: exact_signature(system))
        _, t_classify = _best(lambda _: [classify(q) for q in system.constraints])
        text, t_to_json = _best(lambda _: _to_json(system))
        loaded, t_from_json = _best(lambda _: _from_json(text))
        dims, t_dims = _best(lambda fresh: {d: minimal_face_dim_at(fresh, w)
                                            for d, w in report.witnesses.items()},
                             lambda: _from_json(text))
        probe, t_probe = _best(lambda _: probe_signature(system, 2000, 42))
        three = Signature.of(0, n // 2, n)
        three_system = realize(three).system
        probe_three, t_probe_three = _best(lambda _: probe_signature(three_system, 2000, 42))
        reduced, classes, *_ = _restrict_affine(system)
        ctx = _DimContext(reduced, classes)
        x0 = interior_point(reduced)
        dirs, t_rays = _best(lambda _: _sampled_directions(reduced.dim, 2000, 42))
        (t, pts, vals), t_hits = _best(lambda _: ctx.fs.ray_exit(x0, dirs))
        hit = np.isfinite(t)
        ctx.measure_batch(pts[hit], vals[:, hit])
        _, t_measure = _best(lambda _: ctx.measure_batch(pts[hit], vals[:, hit]))
        tree, t_decompose = _best(lambda _: decompose_min_cost(sig, n))
        half = QuadraticSystem(n, (ConvexQuadratic(A={}, a=(1,) * n, alpha=-1),))
        probe_half, t_probe_half = _best(lambda _: probe_signature(half, 2000, 42))
        ctx = _DimContext(half, [classify(q) for q in half.constraints])
        t, pts, vals = ctx.fs.ray_exit(interior_point(half), dirs)
        hit = np.isfinite(t)
        ctx.measure_batch(pts[hit], vals[:, hit])
        _, t_measure_half = _best(lambda _: ctx.measure_batch(pts[hit], vals[:, hit]))
        sweep[n] = {"realize_s": t_realize, "exact_signature_s": t_exact,
                    "classify_s": t_classify,
                    "to_json_s": t_to_json, "from_json_s": t_from_json,
                    "minimal_face_dim_at_s": t_dims, "probe_signature_s": t_probe,
                    "probe_three_s": t_probe_three,
                    "rays_s": t_rays, "hits_s": t_hits, "measure_s": t_measure,
                    "decompose_s": t_decompose,
                    "halfspace_probe_s": t_probe_half, "halfspace_measure_s": t_measure_half,
                    "signature_ok": report.signature == sig,
                    "to_json_ok": text == json.dumps(formats.system_to_json(system), indent=2,
                                                     sort_keys=True) + "\n",
                    "round_trip_ok": loaded == system,
                    "witness_dims_ok": all(d == k for k, d in dims.items()),
                    "probe_ok": probe.signature == sig,
                    "probe_three_ok": probe_three.signature == three,
                    "halfspace_ok": probe_half.signature == Signature.of(n - 1, n),
                    "decompose_ok": tree_cost(tree) == lower_bound(sig).k}
    print(json.dumps({"template": "{0..n}", "sweep": sweep}))


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [8, 16, 24, 32, 48, 64, 96, 128])
