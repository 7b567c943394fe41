"""Facial dimension signatures: sets of face dimensions and their calculus.

A signature is the set of dimensions of the nonempty faces of a convex set.
This module provides the sumset operations that mirror direct sums of sets,
an exact lower bound on how many convex quadratic inequalities any
realization of a signature needs, and a minimum-cost search over sumset
decompositions used to realize signatures cheaply.  The search visits the
keys (cost, leaf count, sorted leaves) in ascending order from the lower
bound up, so its first hit is the cheapest decomposition and the tie-break
needs no further search.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

DEFAULT_DECOMPOSE_CAP = 24


class DecompositionCapExceeded(ValueError):
    """Raised when a signature is too large for the exponential search."""


@dataclass(frozen=True)
class Signature:
    """Nonempty set of nonnegative integers, kept sorted and deduplicated."""

    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(int(e) for e in self.elements)))
        if not elems:
            raise ValueError("a signature must contain at least one dimension")
        if elems[0] < 0:
            raise ValueError("face dimensions are nonnegative")
        object.__setattr__(self, "elements", elems)

    @classmethod
    def of(cls, *elements: int) -> "Signature":
        return cls(tuple(elements))

    @classmethod
    def from_string(cls, text: str) -> "Signature":
        """Accepts '0,2,3', '{0, 2, 3}' and '0 2 3'."""
        parts = text.strip().strip("{}").replace(",", " ").split()
        try:
            elements = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"cannot parse signature from {text!r}") from exc
        return cls(elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, d: int) -> bool:
        return d in self.elements

    @property
    def min(self) -> int:
        return self.elements[0]

    @property
    def max(self) -> int:
        return self.elements[-1]

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements) + "}"


def minkowski_sum(a: Signature, b: Signature) -> Signature:
    return Signature(tuple(x + y for x in a for y in b))


def shift(a: Signature, k: int) -> Signature:
    return Signature(tuple(x + k for x in a))


def is_complete(a: Signature) -> bool:
    return a.max - a.min + 1 == len(a)


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Descending inequality budget d_1 >= ... >= d_k certifying coverage.

    The certified claim: every face dimension of a realizable set with
    ambient dimension n = max I lies in {n} union the intervals
    [max(0, d_1+...+d_m - (m-1)n), d_m] for m = 1..k.  lower_bound returns
    one of minimal length k.
    """

    n: int
    ds: tuple[int, ...]

    def __post_init__(self):
        ds = tuple(int(d) for d in self.ds)
        object.__setattr__(self, "ds", ds)
        if any(d < 0 or d > self.n - 1 for d in ds):
            raise ValueError("certificate entries must lie in [0, n-1]")
        if any(ds[i] < ds[i + 1] for i in range(len(ds) - 1)):
            raise ValueError("certificate entries must be descending")

    @property
    def k(self) -> int:
        return len(self.ds)

    def intervals(self) -> list[tuple[int, int]]:
        out = []
        total = 0
        for m, d in enumerate(self.ds, start=1):
            total += d
            out.append((max(0, total - (m - 1) * self.n), d))
        return out


def check_certificate(sig: Signature, cert: LowerBoundCertificate) -> bool:
    """True iff the certificate's intervals cover sig exactly as claimed."""
    if cert.n != sig.max:
        return False
    covered = {sig.max}
    for lo, hi in cert.intervals():
        covered.update(range(lo, hi + 1))
    return set(sig.elements) <= covered


def lower_bound(sig: Signature) -> LowerBoundCertificate:
    """Minimal-length certificate for sig, built by one greedy walk.

    Starting from lower = n = max sig, the walk appends d = the largest
    element of sig below lower and sets lower = max(0, lower + d - n), until
    no element is left below lower.  Every entry must reach the largest
    uncovered element, so this d is the smallest admissible one and gives
    the smallest next lower end; a smaller lower end leaves every later
    choice open, so by induction no sequence covers sig in fewer entries.
    """
    n = sig.max
    rest = sig.elements[:-1]
    ds: list[int] = []
    lower = n
    i = bisect_left(rest, lower) - 1
    while i >= 0:
        ds.append(rest[i])
        lower = max(0, lower + rest[i] - n)
        i = bisect_left(rest, lower) - 1
    cert = LowerBoundCertificate(n=n, ds=tuple(ds))
    if not check_certificate(sig, cert):
        raise AssertionError(f"the greedy certificate {ds} does not cover {sig}")
    return cert


@dataclass(frozen=True)
class Leaf:
    signature: Signature


@dataclass(frozen=True)
class Sum:
    parts: tuple["DecompositionTree", ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("a sum node needs at least two parts")


DecompositionTree = Leaf | Sum


def tree_leaves(tree: DecompositionTree) -> tuple[Signature, ...]:
    if isinstance(tree, Leaf):
        return (tree.signature,)
    out: list[Signature] = []
    for part in tree.parts:
        out.extend(tree_leaves(part))
    return tuple(out)


def tree_cost(tree: DecompositionTree) -> int:
    return sum(len(leaf) - 1 for leaf in tree_leaves(tree))


def tree_signature(tree: DecompositionTree) -> Signature:
    sigs = tree_leaves(tree)
    out = sigs[0]
    for s in sigs[1:]:
        out = minkowski_sum(out, s)
    return out


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
