"""Facial dimension signatures: sets of face dimensions and their calculus.

A signature is the set of dimensions of the nonempty faces of a convex set.
This module provides the sumset operations that mirror direct sums of sets,
an exact lower bound on how many convex quadratic inequalities any
realization of a signature needs, and a minimum-cost search over sumset
decompositions used to realize signatures cheaply.
"""

from __future__ import annotations

import itertools
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
