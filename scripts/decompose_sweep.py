"""Time the decomposition search past the default cap on a seeded sweep.

    PYTHONPATH=src python3 scripts/decompose_sweep.py [--lo 25] [--hi 32]

The sweep holds, for every L in lo..hi, the complete signature {0..L} and
the three near-complete ones {0..L} without 1, L//2 or L-1, then RANDOM_COUNT
signatures drawn from Random(SEED): each has a max L in lo..hi, holds 0
and L, and holds every element in between with a probability drawn from
0.2..0.95.  Each signature runs once through decompose_min_cost at budget
hi, under a SIGALRM limit of LIMIT_S seconds.

Prints one JSON object: the sweep's size, how many finished, the median and
90th percentile of the finished signatures' wall times (nearest rank), the
slowest finished signature with its time, and the signatures that ran past
the limit.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import signal
import time

from facetforge.signatures import Signature, decompose_min_cost

SEED = 11
RANDOM_COUNT = 120
LIMIT_S = 10.0


def sweep_signatures(lo: int, hi: int) -> list[Signature]:
    out = []
    for top in range(lo, hi + 1):
        full = set(range(top + 1))
        out.append(Signature(tuple(full)))
        out += [Signature(tuple(full - {d})) for d in (1, top // 2, top - 1)]
    rng = random.Random(SEED)
    for _ in range(RANDOM_COUNT):
        top = rng.randint(lo, hi)
        density = rng.uniform(0.2, 0.95)
        out.append(Signature.of(0, *(e for e in range(1, top) if rng.random() < density), top))
    return out


class _OverLimit(Exception):
    pass


def _raise_over_limit(signum, frame):
    raise _OverLimit


def _rank(times: list[float], q: float) -> float | None:
    return round(times[max(0, math.ceil(len(times) * q) - 1)], 6) if times else None


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--lo", type=int, default=25)
    p.add_argument("--hi", type=int, default=32)
    args = p.parse_args(argv)
    signal.signal(signal.SIGALRM, _raise_over_limit)
    times, unfinished = [], []
    for sig in sweep_signatures(args.lo, args.hi):
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        try:
            decompose_min_cost(sig, args.hi)
        except _OverLimit:
            unfinished.append(str(sig))
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append((time.perf_counter() - start, str(sig)))
    ordered = sorted(t for t, _ in times)
    worst = max(times, default=None)
    print(json.dumps({
        "budget": args.hi, "limit_s": LIMIT_S,
        "signatures": len(times) + len(unfinished), "finished": len(times),
        "p50_s": _rank(ordered, 0.5), "p90_s": _rank(ordered, 0.9),
        "worst": worst and {"signature": worst[1], "seconds": round(worst[0], 6)},
        "unfinished": unfinished,
    }, indent=2))


if __name__ == "__main__":
    main()
