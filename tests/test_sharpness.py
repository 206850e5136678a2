import math
import time
from itertools import combinations

import pytest

from linaff import (
    BhCandidate,
    CoefficientWitness,
    DirectionSet,
    GaloisField,
    PreconditionError,
    PrimeField,
    Rationals,
    Zmod,
    degree_system,
    certify_directions,
    construct_primes,
    is_affine_poly,
    line_affine_check,
    lower_bound_witness,
    minimal_direction_count,
    moment_directions,
    recover,
    search_bh,
    verify_properties,
)
from linaff.multiaffine import Line, radial_values, zero_point

from helpers import adjugate, determinant, elements_of, mat_mul


def _vec(ring, *vals):
    """A direction: the element codes of vals."""
    return tuple(ring.elem(v).value for v in vals)


def _elems(ring, *vals):
    return tuple(ring.elem(v) for v in vals)


def _cand(ring, *vals):
    return BhCandidate(ring, tuple(ring.elem(v) for v in vals))


def _certified_directions(n, ring, cand):
    # certify_directions answers with the node set's ok B_h report and builds
    # no directions: these are the N moment directions that its answer certifies
    report = certify_directions(n, ring, cand)
    assert report == verify_properties(cand) and report.document() == [("status", "ok")]
    return moment_directions(ring, [s.value for s in cand.elements], minimal_direction_count(n))


def test_minimal_direction_count():
    assert minimal_direction_count(2) == 1
    assert minimal_direction_count(3) == 3
    assert minimal_direction_count(4) == 6
    assert minimal_direction_count(5) == 10
    with pytest.raises(PreconditionError):
        minimal_direction_count(1)


def test_minimal_count_is_the_binding_binomial():
    for n in range(3, 17):
        assert minimal_direction_count(n) == max(math.comb(n, k) for k in range(n + 1))


def test_lower_bound_witness_f7_example():
    F7 = PrimeField(7)
    dirs = DirectionSet(F7, 3, (_vec(F7, 1, 1, 1), _vec(F7, 1, 2, 4)))
    witness = lower_bound_witness(3, dirs, F7)
    assert witness.degree == 2
    # deterministic representative: free variable at the last mask set to 1
    coeffs = {tuple(sorted(_mask_bits(m))): c.value for m, c in witness.poly.coeffs.items()}
    assert coeffs == {(1, 2): 2, (1, 3): 4, (2, 3): 1}
    # and it genuinely solves both constraint rows mod 7
    assert (2 + 4 + 1) % 7 == 0
    assert (2 * 2 + 4 * 4 + 1 * 1) % 7 == 0


def _mask_bits(mask):
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def test_lower_bound_witness_without_directions():
    F7 = PrimeField(7)
    witness = lower_bound_witness(3, DirectionSet(F7, 3, ()), F7)
    assert witness.poly.coeffs == {0b011: F7.one}  # the first degree-2 monomial


def test_lower_bound_witness_preconditions():
    F7 = PrimeField(7)
    full = moment_directions(F7, (1, 2, 4), 3)
    with pytest.raises(PreconditionError):
        lower_bound_witness(3, full, F7)  # not fewer than N
    F3 = PrimeField(3)
    with pytest.raises(PreconditionError):
        lower_bound_witness(3, DirectionSet(F3, 3, ()), F3)  # field too small
    with pytest.raises(PreconditionError):
        lower_bound_witness(3, DirectionSet(Zmod(6), 3, ()), Zmod(6))  # not a field
    with pytest.raises(PreconditionError):
        lower_bound_witness(2, DirectionSet(F7, 2, ()), F7)


def test_witness_passes_all_line_hypotheses_yet_is_not_affine():
    # exhaustive validation over several fields and arities; (7, 4) is
    # excluded because 7 <= 2^3 fails the field-size precondition
    for p, n in ((7, 3), (11, 3), (17, 3), (17, 4), (11, 4)):
        F = PrimeField(p)
        count = minimal_direction_count(n)
        nodes = _first_nodes(F, n)
        dirs = moment_directions(F, [s.value for s in nodes], count)
        subset = DirectionSet(F, n, dirs.dirs[: count - 1])
        witness = lower_bound_witness(n, subset, F)
        assert not is_affine_poly(witness.poly)
        oracle = witness.poly
        points = [elements_of(F, v) for v in subset.dirs]
        for v in points:
            assert line_affine_check(oracle, Line(zero_point(F, n), v)).ok
        for k in range(n + 1):
            if k != witness.degree:
                continue
            for v in subset.dirs:
                assert radial_values(witness.poly, v)[k] == 0
        cert = recover(oracle, subset)
        assert cert.status == "non-affine"
        # the refutation came from the surviving coefficient, not from a line
        assert isinstance(cert, CoefficientWitness)


def _first_nodes(F, n):
    found = search_bh(F, n)
    assert found is not None
    return found.elements


def test_certify_directions_f5_example():
    F5 = PrimeField(5)
    directions = _certified_directions(3, F5, _cand(F5, 1, 2, 4))
    assert directions.dirs == (
        (1, 1, 1),
        (1, 2, 4),
        (1, 4, 1),  # 4^2 = 1 mod 5
    )


def test_certify_directions_f17_example():
    F17 = PrimeField(17)
    directions = _certified_directions(4, F17, _cand(F17, 1, 3, 9, 13))
    assert len(directions) == 6


def test_moment_systems_are_vandermonde_in_the_subset_products():
    # the first C(n,k) rows of the degree-k system have determinant
    # prod_{J < J'} (P_J' - P_J); with the B_h bundle every factor is regular
    GF4 = GaloisField(2, 2, [1, 1])
    GF9 = GaloisField(3, 2, [1, 0])
    cases = [(F, n, search_bh(F, n).elements, True)
             for F, n in ((PrimeField(5), 3), (PrimeField(11), 4), (PrimeField(17), 4),
                          (GF4, 3), (GF9, 4), (PrimeField(37), 5))]
    cases += [
        (Rationals(), 5, construct_primes(5).elements, True),
        (PrimeField(7), 4, _elems(PrimeField(7), 1, 2, 3, 6), False),  # 1*6 = 2*3
        (GF9, 3, _elems(GF9, 0, 1, 5), False),  # a zero node
    ]
    for ring, n, nodes, bundle in cases:
        assert verify_properties(BhCandidate(ring, tuple(nodes))).ok == bundle
        dirs = moment_directions(ring, [s.value for s in nodes], minimal_direction_count(n))
        for k in range(2, n + 1):
            masks, rows = degree_system(dirs, k)
            products = []
            for mask in masks:
                acc = ring.one
                for i in _mask_bits(mask):
                    acc = acc * nodes[i - 1]
                products.append(acc)
            vandermonde = ring.one
            for a, b in combinations(range(len(products)), 2):
                vandermonde = vandermonde * (products[b] - products[a])
            square = [elements_of(ring, row) for row in rows[: len(products)]]
            assert determinant(square, ring) == vandermonde
            if bundle:
                assert ring.is_regular(vandermonde)


def test_rational_certify_at_the_largest_arity_answers_within_two_seconds():
    # the first 16 primes: 2^16 subset products over Q, one table on values
    from linaff.cli import run_subcommand

    primes = [str(e.value) for e in construct_primes(16).elements]
    start = time.perf_counter()
    code, text = run_subcommand(
        ["sharpness", "certify", "--ring", "rational", "--n", "16", "--set", ",".join(primes)]
    )
    assert time.perf_counter() - start < 2.0
    assert (code, text.split("\n")[0]) == (0, "status: ok")


def test_certify_directions_rejects_bad_node_set():
    Z6 = Zmod(6)
    with pytest.raises(PreconditionError):
        certify_directions(3, Z6, _cand(Z6, 1, 2, 3))


def test_certified_moment_matrices_satisfy_adjugate_identity():
    for p, n, nodes in ((5, 3, (1, 2, 4)), (11, 3, (1, 2, 4)), (17, 4, (1, 3, 9, 13))):
        F = PrimeField(p)
        cand = _cand(F, *nodes)
        directions = _certified_directions(n, F, cand)
        for k in range(2, n):
            cols = math.comb(n, k)
            square = [elements_of(F, row) for row in degree_system(directions, k)[1][:cols]]
            det = determinant(square, F)
            assert F.is_regular(det)
            adj = adjugate(square, F)
            product = mat_mul(adj, square, F)
            for i in range(cols):
                for j in range(cols):
                    expected = det if i == j else F.zero
                    assert product[i][j] == expected


def test_duality_at_the_boundary():
    # every (N-1)-subset of the certified directions is defeated by a witness
    for p, n, nodes in ((11, 3, (1, 2, 4)), (17, 4, (1, 3, 9, 13))):
        F = PrimeField(p)
        directions = _certified_directions(n, F, _cand(F, *nodes))
        count = minimal_direction_count(n)
        assert len(directions) == count
        for keep in combinations(range(count), count - 1):
            subset = DirectionSet(F, n, tuple(directions.dirs[i] for i in keep))
            witness = lower_bound_witness(n, subset, F)
            for v in subset.dirs:
                assert radial_values(witness.poly, v)[witness.degree] == 0


def test_witness_over_rationals():
    Q = Rationals()
    dirs = DirectionSet(Q, 3, (_vec(Q, 1, 1, 1), _vec(Q, 2, 3, 5)))
    witness = lower_bound_witness(3, dirs, Q)
    for v in dirs.dirs:
        assert radial_values(witness.poly, v)[2] == 0
    assert not is_affine_poly(witness.poly)
