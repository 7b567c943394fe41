"""Time the template {0..n} through realize, exact_signature, JSON encoding
(system_to_json and formats.dumps), JSON decoding (json.loads and
system_from_json), minimal_face_dim_at on every exact witness and
probe_signature (2000 samples, seed 42), and the decomposition search
decompose_min_cost on {0..n} at budget n (through __wrapped__, so the cache
does not serve the repeats).

    PYTHONPATH=src python3 scripts/dim_sweep.py [n ...]

Prints one JSON object: for each n (default 8 16 24 32 48 64 96 128) the best wall
time of 3 calls of each step, in seconds, all in one process, and whether
the certified signature is {0..n}, decoding the encoded text gives back an
equal system, every witness reads back its own dimension, the probe finds
{0..n} and the decomposition's cost meets the lower bound.  Each
minimal_face_dim_at call gets a freshly decoded system, so the
face-measurement context cached on a system is built in every call.  The
default sizes take about five minutes on a 2-core machine, most of it in
JSON decoding at n = 96 and 128.
"""

import json
import sys
import time

from facetforge import formats
from facetforge.constructor import realize
from facetforge.signatures import Signature, decompose_min_cost, lower_bound, tree_cost
from facetforge.verifier import exact_signature, minimal_face_dim_at, probe_signature

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
        text, t_to_json = _best(lambda _: _to_json(system))
        loaded, t_from_json = _best(lambda _: _from_json(text))
        dims, t_dims = _best(lambda fresh: {d: minimal_face_dim_at(fresh, w)
                                            for d, w in report.witnesses.items()},
                             lambda: _from_json(text))
        probe, t_probe = _best(lambda _: probe_signature(system, 2000, 42))
        tree, t_decompose = _best(lambda _: decompose_min_cost.__wrapped__(sig, n))
        sweep[n] = {"realize_s": t_realize, "exact_signature_s": t_exact,
                    "to_json_s": t_to_json, "from_json_s": t_from_json,
                    "minimal_face_dim_at_s": t_dims, "probe_signature_s": t_probe,
                    "decompose_s": t_decompose,
                    "signature_ok": report.signature == sig, "round_trip_ok": loaded == system,
                    "witness_dims_ok": all(d == k for k, d in dims.items()),
                    "probe_ok": probe.signature == sig,
                    "decompose_ok": tree_cost(tree) == lower_bound(sig).k}
    print(json.dumps({"template": "{0..n}", "sweep": sweep}))


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [8, 16, 24, 32, 48, 64, 96, 128])
