import math
import random

from linaff import GaloisField, PrimeField, Rationals, Zmod
from linaff.linalg import kernel_vector
from linaff.recovery import factorial_det

from helpers import (
    adjugate,
    determinant,
    elements_of,
    factorial_vandermonde,
    identity_matrix,
    kernel_vector_reference,
    mat_mul,
    perm_determinant,
    rand_elem,
)

RINGS = [Zmod(6), Zmod(4), PrimeField(7), GaloisField(2, 2, [1, 1]), Rationals()]


def _rand_matrix(ring, n, rng):
    return [[rand_elem(ring, rng) for _ in range(n)] for _ in range(n)]


def test_determinant_matches_permutation_expansion():
    rng = random.Random(7)
    for ring in RINGS:
        for n in (1, 2, 3, 4):
            for _ in range(25):
                m = _rand_matrix(ring, n, rng)
                assert determinant(m, ring) == perm_determinant(m, ring)


def test_factorial_vandermonde_determinants():
    Q = Rationals()
    for n in range(1, 7):
        expected = 1
        for i in range(1, n + 1):
            expected *= math.factorial(i)
        assert determinant(factorial_vandermonde(n, Q), Q) == Q.from_int(expected)
        assert factorial_det(n, Q) == Q.from_int(expected)
    assert determinant(factorial_vandermonde(3, Q), Q) == Q.from_int(12)


def test_factorial_det_reduces_in_finite_rings():
    Z4 = Zmod(4)
    assert factorial_det(2, Z4) == Z4.elem(2)
    assert determinant(factorial_vandermonde(2, Z4), Z4) == Z4.elem(2)


def test_adjugate_identity():
    rng = random.Random(11)
    for ring in RINGS:
        for n in (1, 2, 3):
            for _ in range(10):
                m = _rand_matrix(ring, n, rng)
                det = determinant(m, ring)
                product = mat_mul(adjugate(m, ring), m, ring)
                expected = [
                    [det if i == j else ring.zero for j in range(n)] for i in range(n)
                ]
                assert product == expected


def test_kernel_vectors_annihilate():
    # over a field the vector is the full reduced echelon form's, as before
    rng = random.Random(13)
    for ring in (PrimeField(7), GaloisField(3, 2, [1, 0]), Rationals()):
        for rows_n, cols in ((2, 4), (3, 3), (1, 2), (4, 3)):
            rows = [[rand_elem(ring, rng) for _ in range(cols)] for _ in range(rows_n)]
            # kernel_vector reads and returns values; the reference, elements
            vec = kernel_vector([[a.value for a in row] for row in rows], cols, ring)
            want = kernel_vector_reference(rows, cols, ring)
            assert vec == (None if want is None else [x.value for x in want])
            if vec is not None:
                vec = elements_of(ring, vec)
                assert any(not v.is_zero for v in vec)
                for row in rows:
                    acc = ring.zero
                    for a, b in zip(row, vec):
                        acc = acc + a * b
                    assert acc.is_zero
    # reduced form [[1, 0, 0], [0, 1, 5], [0, 0, 0]] over F_7: x_3 = 1, x_2 = -5
    F7 = PrimeField(7)
    rows = [[2, 4, 6], [1, 2, 3], [0, 1, 5]]
    before = [row[:] for row in rows]
    assert kernel_vector(rows, 3, F7) == [0, 2, 1]
    assert rows == before  # the input is left alone


def test_kernel_of_empty_system_is_full():
    F5 = PrimeField(5)
    for cols in (1, 2, 3):
        assert kernel_vector([], cols, F5) == [F5.one.value] + [F5.zero.value] * (cols - 1)


def test_identity_and_matmul():
    Z6 = Zmod(6)
    ident = identity_matrix(3, Z6)
    rng = random.Random(3)
    m = _rand_matrix(Z6, 3, rng)
    assert mat_mul(ident, m, Z6) == m
    assert mat_mul(m, ident, Z6) == m
