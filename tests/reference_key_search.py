"""The key-ordered decomposition search as it stood before its branches
were cut to partial sums that can still complete the signature, kept
verbatim as a reference.  tests/test_signatures.py compares its keys with
decompose_min_cost's live on seeded signatures of the search workload's
kind (max 13..24, densities 0.4-0.6).
"""

from __future__ import annotations

from functools import lru_cache

from facetforge.signatures import (
    DEFAULT_DECOMPOSE_CAP,
    DecompositionCapExceeded,
    DecompositionTree,
    Leaf,
    Signature,
    Sum,
    lower_bound,
)


def _mask_of(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def _balanced_product(cost: int, count: int) -> int:
    """Largest size product of count leaves (each of 2 or more elements) of
    total cost `cost`, reached by sizes that differ by at most one; it bounds
    the size of their sumset."""
    q, s = divmod(cost, count)
    return (q + 2) ** s * (q + 1) ** (count - s)


def _splits(imask: int, elems: tuple[int, ...]) -> bool:
    """True iff I = A + B with |A|, |B| >= 2 (I given as mask and elements).

    Some such A holds 0 and g = elems[1], and then B = {b : A + b within I}
    works too.  A grows in ascending order and B only shrinks as it does, so
    the lowest element of I that A + B misses bounds A's next element.
    """

    def grow(amask: int, last: int) -> bool:
        shifts = [b for b in elems if (amask << b) | imask == imask]
        if len(shifts) < 2:
            return False
        cover = 0
        for b in shifts:
            cover |= amask << b
        gap = imask & ~cover
        if not gap:
            return True
        low = (gap & -gap).bit_length() - 1
        return any(grow(amask | 1 << a, a) for a in elems if last < a <= low)

    return grow(1 | 1 << elems[1], elems[1])


def _first_leaves(imask: int, elems: tuple[int, ...], cost: int, count: int):
    """Smallest leaf tuple L_1 <= ... <= L_count of this cost summing to I.

    Each leaf holds 0 and at least one more element.  The depth-first search
    picks each leaf's elements in ascending order and tries a leaf before its
    extensions, so it visits the tuples in Python's order and its first hit
    is the smallest.  S is the sumset of the leaves placed so far.
    """
    n, size = elems[-1], len(elems)

    def place(S: int, summax: int, r: int, k: int, prev: tuple[int, ...]):
        # k leaves of total cost r remain, each >= prev; their maxima sum to
        # n - summax.
        shifts = [e for e in elems[1:] if e <= n - summax and (S << e) | imask == imask]
        gap = imask & ~S
        lowest_gap = (gap & -gap).bit_length() - 1
        top = r - k + 2  # the largest leaf that leaves the others 2 elements

        def grow(leaf: tuple[int, ...], T: int, tight: bool):
            # T = S + leaf; tight while leaf is a prefix of prev.
            s = len(leaf)
            bounded = tight and s < len(prev)
            if s >= 2 and not bounded:
                if k == 1:
                    if s == top and T == imask:
                        return (leaf,)
                elif (summax + leaf[-1] + (k - 1) * leaf[1] <= n
                      and T.bit_count() * _balanced_product(r - s + 1, k - 1) >= size):
                    rest = place(T, summax + leaf[-1], r - s + 1, k - 1, leaf)
                    if rest:
                        return (leaf,) + rest
            if s == top:
                return None
            lo = prev[s] if bounded else leaf[-1] + 1
            for e in shifts:
                if e < lo:
                    continue
                # The lowest element missing from S needs a nonzero summand
                # from this leaf or a later one.  A later leaf's nonzero
                # elements, its max among them, are no smaller than this
                # leaf's second one, and the leaf maxima sum to n.
                if s == 1:
                    if e > lowest_gap or summax + k * e > n:
                        break
                elif summax + e + (k - 1) * leaf[1] > n:
                    break
                found = grow(leaf + (e,), T | S << e, bounded and e == lo)
                if found:
                    return found
            return None

        return grow((0,), S, True)

    return place(1, 0, cost, count, (0,))


@lru_cache(maxsize=512)
def decompose_min_cost(sig: Signature, budget: int | None = None) -> DecompositionTree:
    """Minimum-cost sumset factorization of sig (cost = sum of |leaf|-1).

    Returns the tree with the smallest key (cost, leaf count, sorted leaves):
    ties resolve toward fewer leaves, then the lexicographically smallest
    leaf tuple.  Unless sig = A + B with |A|, |B| >= 2, it is the single
    leaf.  Otherwise the keys are searched in ascending order: for each cost
    from lower_bound(sig).k up to |sig| - 2 and each leaf count, a
    depth-first search looks for the smallest leaf tuple at that level, so
    the first hit is the answer; when none is found the single leaf is.
    Refuses signatures with max element beyond the budget cap (default 24):
    the search is exponential by nature.
    """
    if sig.min != 0:
        raise ValueError("decompose_min_cost expects a signature with min 0")
    cap = DEFAULT_DECOMPOSE_CAP if budget is None else budget
    if sig.max > cap:
        raise DecompositionCapExceeded(
            f"max element {sig.max} exceeds the decomposition cap {cap}; "
            "raise the budget to force the search"
        )
    elems = sig.elements
    imask = _mask_of(elems)
    if len(elems) > 2 and _splits(imask, elems):
        for cost in range(lower_bound(sig).k, len(elems) - 1):
            for count in range(2, cost + 1):
                # The sumset of count leaves has at most this many elements.
                if _balanced_product(cost, count) < len(elems):
                    continue
                leaves = _first_leaves(imask, elems, cost, count)
                if leaves:
                    return Sum(tuple(Leaf(Signature(t)) for t in leaves))
    return Leaf(sig)
