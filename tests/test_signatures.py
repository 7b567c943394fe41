"""Signature arithmetic, lower bounds, and sumset decomposition tests.

The lower bound is checked against a brute-force enumeration of
descending certificate sequences, and the decomposition search against an
unoptimized recursive factorizer, both implemented here independently.  The
decomposition keys are also compared with the memoized cofactor enumeration
the search replaced (tests/reference_decompose.py), live on every signature
with max at most 12 and through its recorded keys on larger ones.
"""

import itertools
import json
import math
import random

import pytest
import reference_decompose

from facetforge.signatures import (
    DecompositionCapExceeded,
    Leaf,
    LowerBoundCertificate,
    Signature,
    Sum,
    check_certificate,
    decompose_min_cost,
    is_complete,
    lower_bound,
    minkowski_sum,
    shift,
    tree_cost,
    tree_leaves,
    tree_signature,
)


def test_signature_normalizes_and_validates():
    assert Signature.of(3, 0, 2, 2).elements == (0, 2, 3)
    assert str(Signature.of(0, 2, 3)) == "{0,2,3}"
    assert Signature.from_string("{0, 2,3}") == Signature.of(0, 2, 3)
    with pytest.raises(ValueError):
        Signature(())
    with pytest.raises(ValueError):
        Signature.of(-1, 2)


def test_signature_container_protocol():
    sig = Signature.of(0, 2, 5)
    assert len(sig) == 3
    assert 2 in sig and 3 not in sig
    assert list(sig) == [0, 2, 5]
    assert sig.min == 0 and sig.max == 5


def test_minkowski_sum_and_shift():
    a = Signature.of(0, 1)
    b = Signature.of(0, 2)
    assert minkowski_sum(a, b) == Signature.of(0, 1, 2, 3)
    assert shift(Signature.of(0, 2), 3) == Signature.of(3, 5)
    assert shift(Signature.of(3, 5), -3) == Signature.of(0, 2)
    with pytest.raises(ValueError):
        shift(Signature.of(0, 2), -1)


def test_is_complete():
    assert is_complete(Signature.of(2, 3, 4))
    assert is_complete(Signature.of(5))
    assert not is_complete(Signature.of(0, 2))


def test_certificate_validation():
    cert = LowerBoundCertificate(n=7, ds=(6, 5, 3))
    assert cert.k == 3
    with pytest.raises(ValueError):
        LowerBoundCertificate(n=7, ds=(5, 6))  # not descending
    with pytest.raises(ValueError):
        LowerBoundCertificate(n=7, ds=(7,))  # d must stay below n


def _brute_cover(sig: Signature, ds: tuple, n: int) -> bool:
    # independent statement of the covering condition
    covered = {n}
    total = 0
    for m, d in enumerate(ds, start=1):
        total += d
        covered.update(range(max(0, total - (m - 1) * n), d + 1))
    return set(sig.elements) <= covered


def _brute_min_k(sig: Signature) -> int:
    n = sig.max
    for k in range(len(sig)):
        for ds in itertools.combinations_with_replacement(range(n - 1, -1, -1), k):
            if _brute_cover(sig, ds, n):
                return k
    return len(sig) - 1  # never reached: the search always finds a cover


def test_lower_bound_frozen_cases():
    cert = lower_bound(Signature.of(*range(8)))
    assert cert.k == 3
    assert cert.ds == (6, 5, 3)
    assert check_certificate(Signature.of(*range(8)), cert)
    assert lower_bound(Signature.of(4)).k == 0
    assert lower_bound(Signature.of(0, 5)).k == 1
    assert lower_bound(Signature.of(0, 2, 3)).k == 2


def test_lower_bound_is_minimal_by_exhaustion():
    for bits in range(1, 1 << 8):
        sig = Signature(tuple(e for e in range(8) if bits >> e & 1))
        cert = lower_bound(sig)
        assert check_certificate(sig, cert)
        assert cert.k == _brute_min_k(sig), sig


@pytest.mark.parametrize("top, tight_count", [(12, 743), (13, 1054)])
def test_bound_sandwich_on_every_signature_up_to_max(top, tight_count):
    # lower_bound(I).k <= min decomposition cost <= |I| - 1 for every I with
    # min 0 and max <= top; the bound is tight on 743 of the 4095 with
    # max <= 12 and on 1054 of the 8191 with max <= 13.
    tight = 0
    for bits in range(1, 1 << top):
        sig = Signature.of(0, *(e + 1 for e in range(top) if bits >> e & 1))
        k = lower_bound(sig).k
        cost = tree_cost(decompose_min_cost(sig))
        assert k <= cost <= len(sig) - 1, sig
        tight += k == cost
    assert tight == tight_count


def test_bound_is_tight_on_complete_signatures_up_to_64():
    for top in range(1, 65):
        sig = Signature(tuple(range(top + 1)))
        tree = decompose_min_cost(sig, budget=64)
        assert tree_signature(tree) == sig
        assert tree_cost(tree) == lower_bound(sig).k == math.ceil(math.log2(top + 1)), top


def test_check_certificate_rejects_wrong_n_and_uncovered():
    sig = Signature.of(0, 2, 3)
    assert not check_certificate(sig, LowerBoundCertificate(n=4, ds=(3, 2)))
    assert not check_certificate(sig, LowerBoundCertificate(n=3, ds=(1,)))


def test_tree_helpers():
    tree = Sum((Leaf(Signature.of(0, 1)), Leaf(Signature.of(0, 2))))
    assert tree_cost(tree) == 2
    assert tree_signature(tree) == Signature.of(0, 1, 2, 3)
    assert tree_leaves(tree) == (Signature.of(0, 1), Signature.of(0, 2))
    with pytest.raises(ValueError):
        Sum((Leaf(Signature.of(0, 1)),))  # a sum needs two parts


def test_decompose_frozen_cases():
    tree = decompose_min_cost(Signature.of(0, 1, 2, 3))
    assert tree_cost(tree) == 2
    assert tree_leaves(tree) == (Signature.of(0, 1), Signature.of(0, 2))

    tree8 = decompose_min_cost(Signature.of(*range(8)))
    assert tree_cost(tree8) == 3
    assert tree_leaves(tree8) == (
        Signature.of(0, 1),
        Signature.of(0, 2),
        Signature.of(0, 4),
    )

    primes = decompose_min_cost(Signature.of(0, 2, 3, 5, 7))
    assert tree_cost(primes) == 3
    assert tree_leaves(primes) == (Signature.of(0, 2), Signature.of(0, 3, 5))

    # indecomposable: stays a single leaf
    assert decompose_min_cost(Signature.of(0, 1, 3)) == Leaf(Signature.of(0, 1, 3))
    assert decompose_min_cost(Signature.of(0)) == Leaf(Signature.of(0))


def _brute_best(elems: frozenset) -> int:
    """Minimum factorization cost by plain recursion over sumset splits."""
    best = len(elems) - 1
    universe = sorted(elems)
    nonzero = [e for e in universe if e]
    for r in range(1, len(nonzero)):
        for picked in itertools.combinations(nonzero, r):
            a = frozenset((0,) + picked)
            if max(a) >= max(elems):
                continue
            # candidate cofactors: subsets of valid shifts, always through 0
            bs = [
                b
                for b in range(1, max(elems) - max(a) + 1)
                if all(x + b in elems for x in a)
            ]
            for rr in range(1, len(bs) + 1):
                for chosen in itertools.combinations(bs, rr):
                    bset = frozenset((0,) + chosen)
                    sums = {x + y for x in a for y in bset}
                    if sums != elems:
                        continue
                    cost = (len(a) - 1) + _brute_best(bset)
                    if cost < best:
                        best = cost
    return best


def test_decompose_cost_matches_brute_force_for_small_spans():
    # every signature with min 0 and max at most 6
    for top in range(1, 7):
        for picked in itertools.chain.from_iterable(
            itertools.combinations(range(1, top), r) for r in range(top)
        ):
            sig = Signature.of(0, *picked, top)
            tree = decompose_min_cost(sig)
            assert tree_signature(tree) == sig
            assert tree_cost(tree) == _brute_best(frozenset(sig.elements)), sig


def test_decompose_random_signatures_round_trip():
    rng = random.Random(502)
    for _ in range(80):
        top = rng.randint(1, 10)
        inner = [e for e in range(1, top) if rng.random() < 0.5]
        sig = Signature.of(0, *inner, top)
        tree = decompose_min_cost(sig)
        assert tree_signature(tree) == sig
        assert tree_cost(tree) <= len(sig) - 1
        for leaf in tree_leaves(tree):
            assert leaf.min == 0


def test_decompose_requires_min_zero_and_honors_cap():
    with pytest.raises(ValueError):
        decompose_min_cost(Signature.of(1, 2))
    with pytest.raises(DecompositionCapExceeded):
        decompose_min_cost(Signature.of(0, 25))
    # raising the budget unlocks the same call
    assert decompose_min_cost(Signature.of(0, 25), budget=25) == Leaf(
        Signature.of(0, 25)
    )


def test_decompose_tie_break_prefers_fewer_then_lexicographic_leaves():
    # {0,1,2,3,4,5} = {0,1}+{0,2,4} = {0,1,2}+{0,3}: both cost 3, two leaves;
    # the leaf multiset ((0,1),(0,2,4)) sorts before ((0,1,2),(0,3))
    tree = decompose_min_cost(Signature.of(0, 1, 2, 3, 4, 5))
    assert tree_cost(tree) == 3
    assert tree_leaves(tree) == (Signature.of(0, 1), Signature.of(0, 2, 4))


def test_decompose_complete_24_pins_its_leaves():
    tree = decompose_min_cost(Signature(tuple(range(25))))
    assert [leaf.elements for leaf in tree_leaves(tree)] == [
        (0, 1), (0, 2), (0, 3), (0, 6), (0, 12)]


def _key(tree):
    leaves = tree_leaves(tree)
    return tree_cost(tree), len(leaves), tuple(leaf.elements for leaf in leaves)


def test_decompose_keys_match_reference_up_to_max_12():
    reference = reference_decompose.decompose_min_cost.__wrapped__
    for bits in range(1, 1 << 12):
        sig = Signature.of(0, *(e + 1 for e in range(12) if bits >> e & 1))
        assert _key(decompose_min_cost(sig)) == _key(reference(sig)), sig


def _recorded_keys():
    data = json.loads(reference_decompose.KEYS_PATH.read_text())
    keys = [(tuple(r["signature"]), tuple(map(tuple, r["leaves"]))) for r in data["keys"]]
    return data, keys


def test_recorded_reference_keys_cover_the_seeded_and_near_complete_sets():
    data, keys = _recorded_keys()
    near = [sig.elements for sig in reference_decompose.near_complete_signatures()]
    expected = [sig.elements for sig in reference_decompose.seeded_signatures()] + near
    unfinished = [tuple(sig) for sig in data["unfinished"]]
    assert set(unfinished) <= set(near)
    assert [sig for sig, _ in keys] == [sig for sig in expected if sig not in unfinished]
    # The recording is the reference's: recompute the ones with at most 13
    # elements, where the reference takes milliseconds.
    reference = reference_decompose.decompose_min_cost.__wrapped__
    for elements, leaves in keys:
        if len(elements) <= 13:
            assert _key(reference(Signature(elements)))[2] == leaves, elements


def test_decompose_keys_match_recorded_reference():
    _, keys = _recorded_keys()
    for elements, leaves in keys:
        sig = Signature(elements)
        tree = decompose_min_cost(sig)
        assert tree_signature(tree) == sig
        assert _key(tree)[2] == leaves, sig
