"""Acceptance drills: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import random
import time
from itertools import combinations, product

from linaff import (
    BhCandidate,
    DirectionSet,
    GaloisField,
    MultiAffinePoly,
    PrimeField,
    TableOracle,
    VectorMapTable,
    Zmod,
    degree_system,
    certify_directions,
    check_hypotheses,
    construct_geometric,
    construct_primes,
    family_directions,
    is_affine_poly,
    line_affine_check,
    lower_bound_witness,
    minimal_direction_count,
    moment_directions,
    psi_extract,
    recover,
    recover_semilinear,
    search_bh,
    verify_bh,
    verify_properties,
)
from linaff.cli import (
    EXIT_CANNOT_CANCEL,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    format_function_table,
    parse_function_table,
    run_subcommand,
)
from linaff.linalg import kernel_vector
from linaff.multiaffine import Line, radial_values, zero_point
from linaff.rings import Rationals

from helpers import (
    adjugate,
    determinant,
    all_points,
    elements_of,
    emit_certificate,
    factorial_vandermonde,
    mat_mul,
    rand_affine_poly,
    rand_nonaffine_poly,
    rand_poly,
    table_from_poly,
)


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None and elapsed < self.seconds:
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s < {self.seconds}s)")
        else:
            print(f"ACCEPTANCE {self.name}: FAIL ({elapsed:.2f}s, budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its {self.seconds}s budget"


def _sharpness_drill(fld, n, nodes, cases, seed):
    candidate = BhCandidate(fld, tuple(fld.elem(v) for v in nodes))
    assert verify_properties(candidate).ok
    count = minimal_direction_count(n)
    dirs = moment_directions(fld, [s.value for s in candidate.elements], count)
    rng = random.Random(seed)
    for _ in range(cases):
        cert = recover(rand_affine_poly(fld, n, rng), dirs)
        assert cert.status == "affine"
    for _ in range(cases):
        cert = recover(rand_nonaffine_poly(fld, n, rng), dirs)
        assert cert.status == "non-affine"
    # every direction subset one short of N is defeated by a witness
    for keep in combinations(range(count), count - 1):
        subset = DirectionSet(fld, n, tuple(dirs.dirs[i] for i in keep))
        witness = lower_bound_witness(n, subset, fld)
        assert not is_affine_poly(witness.poly)
        oracle = witness.poly
        for v in subset.dirs:
            assert line_affine_check(oracle, Line(zero_point(fld, n), elements_of(fld, v))).ok
            assert radial_values(witness.poly, v)[witness.degree] == 0
    return count


def test_criterion_1_sharp_bound_n3():
    with _Budget("C1 sharp bound n=3 over F_11", 5.0):
        count = _sharpness_drill(PrimeField(11), 3, (1, 2, 4), 200, seed=101)
        assert count == 3


def test_criterion_2_sharp_bound_n4():
    with _Budget("C2 sharp bound n=4 over F_17", 60.0):
        F17 = PrimeField(17)
        geo = construct_geometric(F17.elem(3), 4)
        assert [e.value for e in geo.elements] == [1, 3, 9, 13]
        count = _sharpness_drill(F17, 4, (1, 3, 9, 13), 200, seed=202)
        assert count == 6


def test_criterion_3_n2_exhaustive_completeness():
    with _Budget("C3 exhaustive n=2 over Z/7", 10.0):
        Z7 = Zmod(7)
        dirs = DirectionSet(Z7, 2, ((1, 1),))
        elems = Z7.elements()
        affine_count = 0
        for c0, c1, c2, c12 in product(elems, repeat=4):
            poly = MultiAffinePoly(Z7, 2, {0: c0, 0b01: c1, 0b10: c2, 0b11: c12})
            cert = recover(poly, dirs)
            if cert.status == "affine":
                affine_count += 1
                assert c12.is_zero
            else:
                assert cert.status == "non-affine" and not c12.is_zero
        assert affine_count == 7**3


def test_criterion_4_zerodivisor_correction():
    with _Budget("C4 quadratic correction over Z/4", 1.0):
        Z4 = Zmod(4)
        poly = MultiAffinePoly(Z4, 2, {0b11: Z4.elem(2)})
        f = table_from_poly(poly)
        # affine along every coordinate-parallel line and along the diagonal
        for axis in range(2):
            direction = tuple(Z4.one if i == axis else Z4.zero for i in range(2))
            for c in Z4.elements():
                base = (Z4.zero, c) if axis == 0 else (c, Z4.zero)
                assert line_affine_check(f, Line(base, direction)).ok
        diag = line_affine_check(f, Line(zero_point(Z4, 2), (Z4.one, Z4.one)))
        assert diag.ok and diag.slope == Z4.elem(2)
        # yet no affine function matches it anywhere
        matches_some_affine = False
        for c0, c1, c2 in product(Z4.elements(), repeat=3):
            candidate = MultiAffinePoly(Z4, 2, {0: c0, 0b01: c1, 0b10: c2})
            if all(
                candidate.value(pt) == f.value(pt) for pt in all_points(Z4, 2)
            ):
                matches_some_affine = True
        assert not matches_some_affine
        cert = recover(f, DirectionSet(Z4, 2, ((1, 1),)))
        assert cert.status == "cannot-cancel"
        assert cert.degree == 2
        assert cert.det == Z4.elem(2)


def test_criterion_4_cancellation_is_polynomial_over_zmod():
    with _Budget("C4 Z/9 n=5 with 20 moment directions", 1.0):
        Z9 = Zmod(9)
        dirs = moment_directions(Z9, (1, 2, 4, 5, 7), 20)
        poly = MultiAffinePoly(Z9, 5, {0: Z9.one, 0b1: Z9.elem(4)})
        cert = recover(poly, dirs)
        # f = 1 + 4x_1 is affine, and the answer follows f
        assert cert.status == "affine"
        assert cert.constant == Z9.one
        assert cert.linear == tuple(Z9.elem(c) for c in (4, 0, 0, 0, 0))
        # mod 3 the nodes take two values, so the degree-2 system has rank
        # at most 2 there and the ring blocks the cancellation: the system
        # has a nonzero solution, a kernel vector mod 3 lifted by 9/3
        masks, rows = degree_system(dirs, 2)
        vector = kernel_vector(rows, len(masks), Z9)
        assert vector is not None and any(vector)
        assert all(c % 3 == 0 for c in vector)
        for row in rows:
            assert sum(a * c for a, c in zip(row, vector)) % 9 == 0


def test_table_recover_f11_n4_within_budget():
    # 14,641 points: the coordinate-line scan and the pointwise re-verify
    # run on the table's element codes
    F11 = PrimeField(11)
    poly = MultiAffinePoly(F11, 4, {0: F11.elem(3), 0b0001: F11.one, 0b0010: F11.elem(4),
                                    0b0100: F11.one, 0b1000: F11.elem(5)})
    f = table_from_poly(poly)
    dirs = family_directions(F11, 4)
    with _Budget("F_11^4 table recover, family directions", 0.5):
        cert = recover(f, dirs)
    assert emit_certificate(cert) == "status: affine\ncoeffs: 3 1 4 1 5\n"


def test_criterion_5_factorial_determinant():
    with _Budget("C5 Vandermonde determinant", 1.0):
        Q = Rationals()
        for n in range(1, 7):
            expected = 1
            for i in range(1, n + 1):
                expected *= math.factorial(i)
            assert determinant(factorial_vandermonde(n, Q), Q) == Q.from_int(expected)
        assert determinant(factorial_vandermonde(3, Q), Q) == Q.from_int(12)


def test_criterion_6a_affine_map_over_f5():
    with _Budget("C6a random affine map over F_5^2", 2.0):
        F5 = PrimeField(5)
        rng = random.Random(606)
        while True:
            cols = tuple(
                tuple(F5.elem(rng.randrange(5)) for _ in range(2)) for _ in range(2)
            )
            det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
            if not det.is_zero:
                break
        offset = (F5.elem(rng.randrange(5)), F5.elem(rng.randrange(5)))
        mapping = {}
        for v in product(F5.elements(), repeat=2):
            image = offset
            for coord, col in zip(v, cols):
                image = tuple(a + coord * c for a, c in zip(image, col))
            mapping[v] = image
        f = VectorMapTable(F5, 2, 2, mapping)
        assert check_hypotheses(f).ok
        cert = recover_semilinear(f)
        assert cert.tau_power == 0
        assert cert.basis_images == cols
        assert cert.offset == offset


def test_criterion_6b_squaring_over_f4():
    with _Budget("C6b coordinatewise squaring over F_4^2", 2.0):
        GF4 = GaloisField(2, 2, [1, 1])
        mapping = {
            v: (v[0] * v[0], v[1] * v[1])
            for v in product(GF4.elements(), repeat=2)
        }
        f = VectorMapTable(GF4, 2, 2, mapping)
        assert check_hypotheses(f).ok
        cert = recover_semilinear(f)
        assert cert.tau_power == 1
        assert cert.basis_images == ((GF4.one, GF4.zero), (GF4.zero, GF4.one))
        assert cert.offset == (GF4.zero, GF4.zero)


def test_criterion_6c_constant_map_rejected():
    with _Budget("C6c constant map rejection", 2.0):
        F5 = PrimeField(5)
        mapping = {
            v: (F5.zero, F5.zero) for v in product(F5.elements(), repeat=2)
        }
        verdict = check_hypotheses(VectorMapTable(F5, 2, 2, mapping))
        assert not verdict.ok
        assert emit_certificate(verdict).startswith("status: violation\nwitness: line-image ")


def test_criterion_7_bh_machinery():
    with _Budget("C7 B_h machinery", 1.0):
        Q = Rationals()
        collision = verify_bh(
            BhCandidate(Q, tuple(Q.from_int(v) for v in (1, 2, 3, 6))), 2
        )
        assert collision is not None
        assert collision.left == (Q.from_int(1), Q.from_int(6))
        assert collision.right == (Q.from_int(2), Q.from_int(3))

        primes = construct_primes(4)
        assert all(verify_bh(primes, h) is None for h in range(1, 5))
        assert verify_properties(primes).ok

        F5 = PrimeField(5)
        assert verify_properties(
            BhCandidate(F5, (F5.one, F5.elem(2), F5.elem(4)))
        ).ok

        assert search_bh(Zmod(4), 3) is None


def test_criterion_8_property_suites():
    with _Budget("C8 property suites", 240.0):
        rng = random.Random(808808)
        # ring axioms, 500 random triples in each ring
        rings = [Zmod(12), PrimeField(11), GaloisField(2, 3, [1, 1, 0]), Rationals()]
        for ring in rings:
            for _ in range(500):
                if ring.is_finite:
                    a, b, c = (
                        ring.element_from_encoding(rng.randrange(ring.size))
                        for _ in range(3)
                    )
                else:
                    a, b, c = (ring.from_int(rng.randint(-50, 50)) for _ in range(3))
                assert a * b == b * a and (a * b) * c == a * (b * c)
                assert a + b == b + a and (a + b) + c == a + (b + c)

        # extraction inverts evaluation: 500 random polynomials
        small = [Zmod(9), PrimeField(7), GaloisField(2, 2, [1, 1])]
        for _ in range(500):
            ring = rng.choice(small)
            n = rng.randint(1, 4)
            poly = rand_poly(ring, n, rng)
            assert psi_extract(poly) == poly

        # hypercube identity over every coordinate-affine table on Z/3 x Z/3
        Z3 = Zmod(3)
        points = all_points(Z3, 2)
        passing = 0
        for values in product(Z3.elements(), repeat=9):
            f = TableOracle(Z3, 2, dict(zip(points, values)))
            ok = True
            for axis in range(2):
                direction = tuple(Z3.one if i == axis else Z3.zero for i in range(2))
                for c in Z3.elements():
                    base = (Z3.zero, c) if axis == 0 else (c, Z3.zero)
                    if not line_affine_check(f, Line(base, direction)).ok:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            passing += 1
            psi = psi_extract(f)
            assert all(psi.value(pt) == f.value(pt) for pt in points)
        assert passing == 3**4

        # slope uniqueness on 500 random passing lines
        Z8 = Zmod(8)
        checked = 0
        while checked < 500:
            f = table_from_poly(rand_poly(Z8, 2, rng))
            base = tuple(Z8.element_from_encoding(rng.randrange(8)) for _ in range(2))
            direction = (Z8.one, Z8.element_from_encoding(rng.randrange(8)))
            check = line_affine_check(f, Line(base, direction))
            if not check.ok:
                continue
            s = Z8.element_from_encoding(rng.randrange(8))
            r = Z8.element_from_encoding(rng.randrange(8))
            m1 = tuple(b + s * d for b, d in zip(base, direction))
            pt = tuple(m + r * d for m, d in zip(m1, direction))
            assert f.value(pt) == f.value(m1) + check.slope * r
            checked += 1

        # adjugate identity on every certified moment matrix
        for p, n, nodes in ((5, 3, (1, 2, 4)), (11, 3, (1, 2, 4)), (17, 4, (1, 3, 9, 13))):
            F = PrimeField(p)
            candidate = BhCandidate(F, tuple(F.elem(v) for v in nodes))
            assert certify_directions(n, F, candidate).document() == [("status", "ok")]
            directions = moment_directions(F, nodes, minimal_direction_count(n))
            assert len(directions) == minimal_direction_count(n)
            for k in range(2, n):
                cols = math.comb(n, k)
                square = [elements_of(F, row) for row in degree_system(directions, k)[1][:cols]]
                det = determinant(square, F)
                prod_mat = mat_mul(adjugate(square, F), square, F)
                assert all(
                    prod_mat[i][j] == (det if i == j else F.zero)
                    for i in range(cols)
                    for j in range(cols)
                )

        # parse/print roundtrips on 500 random oracles
        for _ in range(500):
            ring = rng.choice(small)
            n = rng.randint(1, 2)
            poly = rand_poly(ring, n, rng)
            if rng.random() < 0.5:
                oracle = poly
            else:
                oracle = table_from_poly(poly)
            text = format_function_table(oracle)
            again = parse_function_table(text)
            assert format_function_table(again) == text

        # exit-code contract end to end
        import tempfile, os

        Z7 = Zmod(7)
        affine_text = format_function_table(
            table_from_poly(
                MultiAffinePoly(Z7, 2, {0: Z7.one, 0b01: Z7.elem(3), 0b10: Z7.elem(2)})
            )
        )
        Z4 = Zmod(4)
        zdiv_text = format_function_table(
            table_from_poly(MultiAffinePoly(Z4, 2, {0b11: Z4.elem(2)}))
        )
        with tempfile.TemporaryDirectory() as tmp:
            affine_path = os.path.join(tmp, "a.tbl")
            with open(affine_path, "w") as h:
                h.write(affine_text)
            zdiv_path = os.path.join(tmp, "z.tbl")
            with open(zdiv_path, "w") as h:
                h.write(zdiv_text)
            assert run_subcommand(["recover", "--input", affine_path, "--dirs", "1,1"])[0] == EXIT_OK
            assert run_subcommand(["recover", "--input", zdiv_path, "--dirs", "1,1"])[0] == EXIT_CANNOT_CANCEL
            assert run_subcommand(["bh", "verify", "--ring", "rational", "--set", "1,2,3,6", "--h", "2"])[0] == EXIT_NEGATIVE
            assert run_subcommand(["oops"])[0] == EXIT_USAGE
