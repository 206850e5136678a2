import random
from itertools import combinations

import pytest

from linaff import (
    BhCandidate,
    PreconditionError,
    PrimeField,
    Rationals,
    UnsupportedRingError,
    Zmod,
    construct_geometric,
    construct_primes,
    search_bh,
    verify_bh,
    verify_properties,
)
from linaff.rings import is_prime

from helpers import verify_properties_pairwise


def _cand(ring, *vals):
    return BhCandidate(ring, tuple(ring.elem(v) for v in vals))


def test_verify_bh_collision_example():
    Q = Rationals()
    cand = _cand(Q, 1, 2, 3, 6)
    collision = verify_bh(cand, 2)
    assert collision is not None
    assert collision.left == (Q.from_int(1), Q.from_int(6))
    assert collision.right == (Q.from_int(2), Q.from_int(3))
    assert collision.product == Q.from_int(6)


def test_verify_bh_ok_examples():
    F5 = PrimeField(5)
    assert verify_bh(_cand(F5, 1, 2, 4), 2) is None  # products 2, 4, 3
    Q = Rationals()
    assert verify_bh(_cand(Q, 1, 2, 3, 6), 1) is None
    with pytest.raises(PreconditionError):
        verify_bh(_cand(Q, 1, 2), 3)


def test_verify_bh_matches_sorted_multiset_oracle():
    # independent recomputation: duplicates in the sorted product list
    rng = random.Random(404)
    rings = [Zmod(12), PrimeField(11), Zmod(9)]
    for _ in range(200):
        ring = rng.choice(rings)
        size = rng.randint(2, 5)
        codes = rng.sample(range(ring.size), size)
        cand = BhCandidate(ring, tuple(ring.element_from_encoding(c) for c in codes))
        h = rng.randint(1, size)
        prods = []
        for picks in combinations(range(size), h):
            acc = ring.one
            for i in picks:
                acc = acc * cand.elements[i]
            prods.append(ring.encode(acc))
        has_dupe = len(set(prods)) != len(prods)
        assert (verify_bh(cand, h) is not None) == has_dupe


def test_verify_properties_examples():
    Q = Rationals()
    assert verify_properties(_cand(Q, 2, 3, 5, 7)).ok

    F5 = PrimeField(5)
    assert verify_properties(_cand(F5, 1, 2, 4)).ok

    Z6 = Zmod(6)
    report = verify_properties(_cand(Z6, 1, 2, 3))
    assert not report.ok
    fail = report.property2
    assert fail is not None
    assert fail.h == 2
    assert fail.left == (Z6.one, Z6.elem(2))
    assert fail.right == (Z6.elem(2), Z6.elem(3))
    assert fail.difference == Z6.elem(2)  # 2 - 0 after 2*3 = 0


def test_verify_properties_matches_pairwise_scan():
    from linaff import GaloisField

    rng = random.Random(8080)
    rings = [Zmod(m) for m in (4, 6, 8, 9, 10, 12, 15, 18, 30)] + [
        PrimeField(7),
        PrimeField(13),
        GaloisField(2, 2, [1, 1]),
        GaloisField(3, 2, [1, 0]),
    ]
    Q = Rationals()
    for _ in range(300):
        ring = rng.choice(rings + [Q])
        if ring is Q:
            values = rng.sample(range(-6, 13), rng.randint(3, 5))
            cand = BhCandidate(Q, tuple(Q.from_int(v) for v in values))
        else:
            codes = rng.sample(range(ring.size), rng.randint(3, min(5, ring.size)))
            cand = BhCandidate(ring, tuple(ring.element_from_encoding(c) for c in codes))
        assert verify_properties(cand) == verify_properties_pairwise(cand)


def test_property2_failures_imply_no_silent_collisions():
    # a collision is a zero difference and zero is never regular, so a clean
    # property-2 scan forces clean B_h verdicts in the checked range
    rng = random.Random(11011)
    rings = [Zmod(10), Zmod(9), PrimeField(13)]
    for _ in range(200):
        ring = rng.choice(rings)
        size = rng.randint(3, 5)
        codes = rng.sample(range(ring.size), size)
        cand = BhCandidate(ring, tuple(ring.element_from_encoding(c) for c in codes))
        report = verify_properties(cand)
        if report.property2 is None:
            for h in range(2, size):
                assert report.per_h[h] is None


def test_construct_geometric_examples():
    F17 = PrimeField(17)
    cand = construct_geometric(F17.elem(3), 4)
    assert [e.value for e in cand.elements] == [1, 3, 9, 13]
    assert verify_properties(cand).ok

    F5 = PrimeField(5)
    cand = construct_geometric(F5.elem(2), 3)
    assert [e.value for e in cand.elements] == [1, 2, 4]

    with pytest.raises(PreconditionError) as err:
        construct_geometric(F5.elem(4), 3)
    assert "g^2" in str(err.value)


def test_construct_geometric_validity_range():
    # every admissible (g, n) over small prime fields yields a passing set
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        F = PrimeField(p)
        for n in (3, 4):
            for g_val in range(2, p):
                g = F.elem(g_val)
                try:
                    cand = construct_geometric(g, n)
                except PreconditionError:
                    continue
                assert verify_properties(cand).ok


def test_construct_primes():
    for n, expect in ((3, [2, 3, 5]), (4, [2, 3, 5, 7]), (5, [2, 3, 5, 7, 11])):
        cand = construct_primes(n)
        assert [e.value for e in cand.elements] == expect
    assert verify_properties(construct_primes(4)).ok
    assert all(verify_bh(construct_primes(4), h) is None for h in range(1, 5))


def test_search_bh_examples():
    F5 = PrimeField(5)
    found = search_bh(F5, 3)
    assert found is not None
    assert verify_properties(found).ok

    assert search_bh(Zmod(4), 3) is None
    assert search_bh(PrimeField(2), 3) is None

    with pytest.raises(UnsupportedRingError):
        search_bh(Rationals(), 3)
    with pytest.raises(PreconditionError):
        search_bh(F5, 2)


def test_search_bh_is_lexicographically_first():
    F5 = PrimeField(5)
    found = search_bh(F5, 3)
    codes = [e.value for e in found.elements]
    # nothing lexicographically earlier passes
    for picks in combinations(range(5), 3):
        if list(picks) >= codes:
            break
        cand = BhCandidate(F5, tuple(F5.elem(c) for c in picks))
        assert not verify_properties(cand).ok


def test_search_bh_budget():
    F7 = PrimeField(7)
    assert search_bh(F7, 3, budget=1) is None


def test_search_bh_rejects_a_budget_below_one():
    # an invalid budget is a usage error, never a negative "none" certificate
    from linaff.cli import EXIT_USAGE, run_subcommand

    for budget in (0, -5):
        with pytest.raises(PreconditionError):
            search_bh(PrimeField(7), 3, budget=budget)
        code, text = run_subcommand(
            ["bh", "search", "--ring", "prime 7", "--n", "3", "--budget", str(budget)]
        )
        assert (code, text) == (EXIT_USAGE, f"error: budget must be >= 1, got {budget}\n")


def test_field_threshold_matches_refined_bound():
    # fields larger than 2^{n-1} always contain a valid node set
    for n in (3, 4):
        for p in range(2 ** (n - 1) + 1, 32):
            if not is_prime(p):
                continue
            assert search_bh(PrimeField(p), n) is not None


def test_candidate_validation():
    Z6 = Zmod(6)
    with pytest.raises(PreconditionError):
        BhCandidate(Z6, (Z6.one, Z6.one))
    with pytest.raises(PreconditionError):
        BhCandidate(Z6, ())
    with pytest.raises(PreconditionError):
        verify_properties(_cand(Z6, 1, 2))
