import math
from itertools import combinations

import pytest

from linaff import (
    BhCandidate,
    CoefficientWitness,
    DirectionSet,
    PreconditionError,
    PrimeField,
    Rationals,
    Zmod,
    certify_directions,
    is_affine_poly,
    line_affine_check,
    lower_bound_witness,
    minimal_direction_count,
    moment_directions,
    recover,
    restrict_radial,
)
from linaff.linalg import determinant
from linaff.multiaffine import Line, PolyOracle, zero_point

from helpers import adjugate, mat_mul


def _vec(ring, *vals):
    return tuple(ring.elem(v) for v in vals)


def _cand(ring, *vals):
    return BhCandidate(ring, tuple(ring.elem(v) for v in vals))


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
    full = moment_directions([F7.one, F7.elem(2), F7.elem(4)], 3)
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
        dirs = moment_directions(nodes, count)
        subset = dirs.subset(range(count - 1))
        witness = lower_bound_witness(n, subset, F)
        assert not is_affine_poly(witness.poly)
        oracle = PolyOracle(witness.poly)
        for v in subset.dirs:
            assert line_affine_check(oracle, Line(zero_point(F, n), v)).ok
        for k in range(n + 1):
            if k != witness.degree:
                continue
            for v in subset.dirs:
                assert restrict_radial(witness.poly, v)[k].is_zero
        cert = recover(oracle, subset)
        assert cert.status == "non-affine"
        # the refutation came from the surviving coefficient, not from a line
        assert isinstance(cert, CoefficientWitness)


def _first_nodes(F, n):
    from linaff import search_bh

    found = search_bh(F, n)
    assert found is not None
    return found.elements


def test_certify_directions_f5_example():
    F5 = PrimeField(5)
    result = certify_directions(3, F5, _cand(F5, 1, 2, 4))
    assert result.ok
    assert result.dets[2] == F5.elem(3)  # (4-2)(3-2)(3-4) mod 5
    assert len(result.directions) == 3


def test_certify_directions_f17_example():
    F17 = PrimeField(17)
    result = certify_directions(4, F17, _cand(F17, 1, 3, 9, 13))
    assert result.ok
    assert len(result.directions) == 6


def test_certify_directions_rejects_bad_node_set():
    Z6 = Zmod(6)
    with pytest.raises(PreconditionError):
        certify_directions(3, Z6, _cand(Z6, 1, 2, 3))


def test_certified_moment_matrices_satisfy_adjugate_identity():
    for p, n, nodes in ((5, 3, (1, 2, 4)), (11, 3, (1, 2, 4)), (17, 4, (1, 3, 9, 13))):
        F = PrimeField(p)
        cand = _cand(F, *nodes)
        result = certify_directions(n, F, cand)
        assert result.ok
        from linaff import build_degree_systems

        systems = build_degree_systems(result.directions)
        for k in range(2, n):
            cols = math.comb(n, k)
            square = [systems[k].rows[i] for i in range(cols)]
            det = determinant(square, F)
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
        result = certify_directions(n, F, _cand(F, *nodes))
        assert result.ok
        count = minimal_direction_count(n)
        for keep in combinations(range(count), count - 1):
            subset = result.directions.subset(keep)
            witness = lower_bound_witness(n, subset, F)
            for v in subset.dirs:
                assert restrict_radial(witness.poly, v)[witness.degree].is_zero


def test_witness_over_rationals():
    Q = Rationals()
    dirs = DirectionSet(Q, 3, (_vec(Q, 1, 1, 1), _vec(Q, 2, 3, 5)))
    witness = lower_bound_witness(3, dirs, Q)
    for v in dirs.dirs:
        assert restrict_radial(witness.poly, v)[2].is_zero
    assert not is_affine_poly(witness.poly)
