"""The memoized cofactor enumeration that decompose_min_cost replaced, kept
verbatim as a reference, and the inputs its keys are compared on.

    PYTHONPATH=src python3 tests/reference_decompose.py

recomputes tests/reference_decompose_keys.json: the reference's leaf key
for each seeded signature with max 13..18 and each near-complete signature
with max 16..24, and the near-complete ones it could not finish within
LIMIT_S seconds each.  The 300 seeded ones take about 40 s in all; the
near-complete ones take up to LIMIT_S each.
"""

from __future__ import annotations

import itertools
import json
import random
import signal
import sys
import time
from functools import lru_cache
from pathlib import Path

from facetforge.signatures import (
    DEFAULT_DECOMPOSE_CAP,
    DecompositionCapExceeded,
    DecompositionTree,
    Leaf,
    Signature,
    Sum,
    lower_bound,
)

KEYS_PATH = Path(__file__).with_name("reference_decompose_keys.json")
LIMIT_S = 300


def seeded_signatures() -> list[Signature]:
    """300 signatures with max 13..18 and densities 0.2-0.95, Random(11)."""
    rng = random.Random(11)
    out = []
    for _ in range(300):
        top = rng.randint(13, 18)
        density = rng.uniform(0.2, 0.95)
        out.append(Signature.of(0, *(e for e in range(1, top) if rng.random() < density), top))
    return out


def near_complete_signatures() -> list[Signature]:
    """{0..L} and {0..L} without one of 1, L//2, L-1, for L = 16..24."""
    out = []
    for top in range(16, 25):
        full = set(range(top + 1))
        out.append(Signature(tuple(full)))
        out += [Signature(tuple(full - {d})) for d in (1, top // 2, top - 1)]
    return out


def leaf_key(tree: DecompositionTree) -> list[list[int]]:
    if isinstance(tree, Leaf):
        return [list(tree.signature.elements)]
    return [list(part.signature.elements) for part in tree.parts]


class _OverLimit(Exception):
    pass


def _raise_over_limit(signum, frame):
    raise _OverLimit


def main() -> None:
    signal.signal(signal.SIGALRM, _raise_over_limit)
    keys, unfinished = [], []
    for sig in seeded_signatures() + near_complete_signatures():
        start = time.perf_counter()
        signal.alarm(LIMIT_S)
        try:
            tree = decompose_min_cost.__wrapped__(sig)
        except _OverLimit:
            unfinished.append(list(sig.elements))
            print(f"{sig}: over {LIMIT_S} s", file=sys.stderr)
            continue
        finally:
            signal.alarm(0)
        keys.append({"signature": list(sig.elements), "leaves": leaf_key(tree)})
        print(f"{sig}: {time.perf_counter() - start:.2f} s", file=sys.stderr)
    rows = ",\n".join(json.dumps(row) for row in keys)
    KEYS_PATH.write_text(f'{{"limit_s": {LIMIT_S}, "unfinished": {json.dumps(unfinished)},\n'
                         f'"keys": [\n{rows}\n]}}\n')


# The reference, as it stood in facetforge.signatures.


def _mask_of(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def _elems_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _dyadic_leafkey(span: int) -> tuple[tuple[int, ...], ...]:
    # Complete {0..span} always splits into doubleton leaves {0, 2^j} plus a
    # remainder doubleton; cost matches the log lower bound.
    leaves = []
    covered = 1
    while covered * 2 <= span + 1:
        leaves.append((0, covered))
        covered *= 2
    if covered < span + 1:
        leaves.append((0, span + 1 - covered))
    return tuple(sorted(leaves))


@lru_cache(maxsize=512)
def decompose_min_cost(sig: Signature, budget: int | None = None) -> DecompositionTree:
    """Minimum-cost sumset factorization of sig (cost = sum of |leaf|-1).

    Exhaustive memoized enumeration over factor pairs: a candidate leaf A
    with 0 and the smallest nonzero element, its compatible shift set
    Bmax = {b : A + {b} subset of sig}, and every covering subset of Bmax as
    the recursive cofactor.  Branch and bound prunes pairs whose lower-bound
    cost already exceeds the incumbent; ties resolve toward fewer leaves,
    then the lexicographically smallest leaf multiset.  Refuses signatures
    with max element beyond the budget cap (default 24): the search is
    exponential by nature.
    """
    if sig.min != 0:
        raise ValueError("decompose_min_cost expects a signature with min 0")
    cap = DEFAULT_DECOMPOSE_CAP if budget is None else budget
    if sig.max > cap:
        raise DecompositionCapExceeded(
            f"max element {sig.max} exceeds the decomposition cap {cap}; "
            "raise the budget to force the search"
        )
    if len(sig) == 1:
        return Leaf(sig)

    memo: dict[int, tuple[int, int, tuple[tuple[int, ...], ...]]] = {}
    lb_memo: dict[int, int] = {}

    def lbk(mask: int) -> int:
        if mask not in lb_memo:
            lb_memo[mask] = lower_bound(Signature(_elems_of(mask))).k
        return lb_memo[mask]

    def covering_cofactors(amask: int, bmax: list[int], imask: int):
        """All r with 0 in r, r - {0} subset of bmax, union (amask << b) == imask.

        bmax holds the admissible nonzero shifts; the zero shift is mandatory
        and seeded directly.
        """
        results: list[int] = []
        base = amask  # shift by the mandatory 0

        def rec(idx: int, rmask: int, covered: int):
            if covered == imask:
                results.append(rmask)
                # supersets of a covering set still cover; keep extending
            if idx == len(bmax):
                return
            uncovered = imask & ~covered
            if uncovered:
                low = (uncovered & -uncovered).bit_length() - 1
                if bmax[idx] > low:
                    return  # nothing later can reach the lowest gap
            rec(idx + 1, rmask, covered)  # skip bmax[idx]
            b = bmax[idx]
            rec(idx + 1, rmask | (1 << b), covered | (amask << b))

        rec(0, 1, base)
        return results

    def best(imask: int) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
        if imask in memo:
            return memo[imask]
        elems = _elems_of(imask)
        span = elems[-1]
        incumbent = (len(elems) - 1, 1, (elems,))
        if len(elems) == span + 1 and span >= 1:
            seed = _dyadic_leafkey(span)
            seed_entry = (sum(len(t) - 1 for t in seed), len(seed), seed)
            if seed_entry < incumbent:
                incumbent = seed_entry
        memo[imask] = incumbent  # guard against re-entry; refined below
        g = elems[1]
        others = [e for e in elems[2:]]
        for size in range(2, len(elems) + 1):
            if (size - 1) + 1 > incumbent[0]:
                break  # any cofactor costs at least 1 more
            for extra in itertools.combinations(others, size - 2):
                a_elems = (0, g) + extra
                amask = _mask_of(a_elems)
                aspan = a_elems[-1]
                if aspan >= span:
                    continue
                bmax = [
                    b
                    for b in range(1, span - aspan + 1)
                    if ((amask << b) | imask) == imask
                ]
                union = amask
                for b in bmax:
                    union |= amask << b
                if union != imask:
                    continue
                leaf_cost = size - 1
                for rmask in covering_cofactors(amask, bmax, imask):
                    if rmask.bit_count() < 2:
                        continue
                    if leaf_cost + lbk(rmask) > incumbent[0]:
                        continue
                    rcost, rleaves, rkey = best(rmask)
                    cand = (
                        leaf_cost + rcost,
                        1 + rleaves,
                        tuple(sorted(rkey + (a_elems,))),
                    )
                    if cand < incumbent:
                        incumbent = cand
                        memo[imask] = incumbent
        memo[imask] = incumbent
        return incumbent

    _, nleaves, leafkey = best(_mask_of(sig.elements))
    if nleaves == 1:
        return Leaf(Signature(leafkey[0]))
    return Sum(tuple(Leaf(Signature(t)) for t in leafkey))


if __name__ == "__main__":
    main()
