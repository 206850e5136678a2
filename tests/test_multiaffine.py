import random
from itertools import product

import pytest

from linaff import (
    ArityError,
    Line,
    MissingPointError,
    MultiAffinePoly,
    PreconditionError,
    PrimeField,
    Rationals,
    RingMismatchError,
    TableOracle,
    UnsupportedRingError,
    Zmod,
    is_affine_poly,
    line_affine_check,
    moment_directions,
    psi_extract,
    restrict_radial,
)
from linaff.multiaffine import restriction_check, subset_to_mask, zero_point
from linaff.rings import GaloisField

from helpers import (
    all_points,
    line_check_reference,
    psi_by_inclusion_exclusion,
    rand_affine_poly,
    rand_elem,
    rand_nonzero,
    rand_null_codes,
    rand_poly,
    restriction_check_reference,
    table_from_poly,
)


def test_evaluate_examples():
    Z5 = Zmod(5)
    xy = MultiAffinePoly(Z5, 2, {0b11: Z5.one})
    assert xy.value((Z5.elem(2), Z5.elem(3))) == Z5.one  # 6 mod 5
    empty = MultiAffinePoly(Z5, 2, {})
    assert empty.value((Z5.elem(4), Z5.elem(4))).is_zero
    Z7 = Zmod(7)
    p = MultiAffinePoly(Z7, 2, {0: Z7.one, 1: Z7.elem(2)})
    assert p.value((Z7.elem(3), Z7.zero)).is_zero  # 1 + 6 mod 7
    with pytest.raises(ArityError):
        p.value((Z7.one,))


def test_psi_extract_examples():
    Z5 = Zmod(5)
    xy = MultiAffinePoly(Z5, 2, {0b11: Z5.one})
    out = psi_extract(table_from_poly(xy))
    assert out.coeffs == {0b11: Z5.one}

    const = MultiAffinePoly(Z5, 2, {0: Z5.elem(3)})
    assert psi_extract(table_from_poly(const)).coeffs == {0: Z5.elem(3)}


def test_psi_extract_matches_displayed_two_variable_case():
    # coefficient of x1x2 must equal f(m0+e1+e2) - f(m0+e1) - f(m0+e2) + f(m0)
    rng = random.Random(99)
    Z7 = Zmod(7)
    for _ in range(50):
        f = table_from_poly(rand_poly(Z7, 2, rng))
        for m0 in all_points(Z7, 2):
            psi = psi_extract(f, m0)
            e1 = (Z7.one, Z7.zero)
            e2 = (Z7.zero, Z7.one)
            both = (m0[0] + Z7.one, m0[1] + Z7.one)
            shifted1 = (m0[0] + Z7.one, m0[1])
            shifted2 = (m0[0], m0[1] + Z7.one)
            expected = f.value(both) - f.value(shifted1) - f.value(shifted2) + f.value(m0)
            assert psi.coeff(0b11) == expected


def test_psi_extract_matches_inclusion_exclusion_oracle():
    rng = random.Random(4242)
    rings = [Zmod(9), PrimeField(7), GaloisField(2, 3, [1, 1, 0])]
    for _ in range(60):
        ring = rng.choice(rings)
        n = rng.randint(1, 3)
        f = table_from_poly(rand_poly(ring, n, rng))
        base = tuple(ring.element_from_encoding(rng.randrange(ring.size)) for _ in range(n))
        assert psi_extract(f, base).coeffs == psi_by_inclusion_exclusion(f, base)


def test_mobius_duality():
    # extraction at the origin inverts evaluation for every multi-affine poly
    rng = random.Random(31337)
    rings = [Zmod(9), Zmod(6), PrimeField(7), GaloisField(3, 2, [1, 0])]
    cases = 0
    while cases < 500:
        ring = rng.choice(rings)
        n = rng.randint(1, 4)
        poly = rand_poly(ring, n, rng)
        oracle = poly
        assert psi_extract(oracle) == poly
        cases += 1


def test_psi_extract_of_a_poly_matches_inclusion_exclusion():
    rng = random.Random(2718)
    Z9 = Zmod(9)
    for _ in range(40):
        n = rng.randint(1, 3)
        poly = rand_poly(Z9, n, rng)
        base = tuple(Z9.element_from_encoding(rng.randrange(9)) for _ in range(n))
        assert psi_extract(poly, base).coeffs == psi_by_inclusion_exclusion(poly, base)


def test_hypercube_identity_after_coordinate_checks():
    # over a finite ring, any table that is affine along every coordinate
    # line agrees everywhere with its extracted polynomial; checked for
    # every function on small domains
    for ring, n in ((Zmod(2), 2), (Zmod(3), 2), (Zmod(2), 3)):
        points = all_points(ring, n)
        passing = 0
        for values in product(ring.elements(), repeat=len(points)):
            table = dict(zip(points, values))
            f = TableOracle(ring, n, table)
            if not _coordinate_lines_affine(f):
                continue
            passing += 1
            psi = psi_extract(f)
            for pt in points:
                assert psi.value(pt) == f.value(pt)
        # the passing tables are exactly the multi-affine polynomials
        assert passing == ring.size ** (2**n)


def _coordinate_lines_affine(f):
    ring, n = f.ring, f.arity
    for axis in range(n):
        direction = tuple(ring.one if i == axis else ring.zero for i in range(n))
        for rest in product(ring.elements(), repeat=n - 1):
            base = list(rest[:axis]) + [ring.zero] + list(rest[axis:])
            if not line_affine_check(f, Line(tuple(base), direction)).ok:
                return False
    return True


def test_line_affine_check_examples():
    Z4 = Zmod(4)
    two_xy = MultiAffinePoly(Z4, 2, {0b11: Z4.elem(2)})
    f = table_from_poly(two_xy)
    check = line_affine_check(f, Line(zero_point(Z4, 2), (Z4.one, Z4.one)))
    assert check.ok and check.slope == Z4.elem(2)

    Z5 = Zmod(5)
    xy = table_from_poly(MultiAffinePoly(Z5, 2, {0b11: Z5.one}))
    check = line_affine_check(xy, Line(zero_point(Z5, 2), (Z5.one, Z5.one)))
    assert not check.ok
    assert check.witness == (Z5.zero, Z5.one, Z5.elem(2))

    const = table_from_poly(MultiAffinePoly(Z5, 2, {0: Z5.elem(4)}))
    check = line_affine_check(const, Line((Z5.elem(1), Z5.elem(3)), (Z5.elem(2), Z5.one)))
    assert check.ok and check.slope.is_zero


def test_line_check_slope_holds_from_every_base_point():
    # when the check passes, the same slope works from every point of the line
    rng = random.Random(555)
    Z8 = Zmod(8)
    for _ in range(30):
        f = table_from_poly(rand_poly(Z8, 2, rng))
        base = tuple(Z8.element_from_encoding(rng.randrange(8)) for _ in range(2))
        direction = (Z8.one, Z8.element_from_encoding(rng.randrange(8)))
        check = line_affine_check(f, Line(base, direction))
        if not check.ok:
            continue
        for s in Z8.elements():
            m1 = tuple(b + s * d for b, d in zip(base, direction))
            for r in Z8.elements():
                pt = tuple(m + r * d for m, d in zip(m1, direction))
                assert f.value(pt) == f.value(m1) + check.slope * r


@pytest.mark.parametrize(
    "ring",
    [Zmod(4), Zmod(6), Zmod(9), PrimeField(5), GaloisField(2, 2, [1, 1]), GaloisField(3, 2, [1, 0])],
    ids=lambda r: r.spec_text(),
)
def test_poly_line_check_matches_its_table(ring):
    # a polynomial's line check reads its restriction; its table's scans
    # every point of the line: same slope, same first refuting parameter
    rng = random.Random(f"line check {ring.spec_text()}")
    outcomes = set()
    for _ in range(40):
        n = rng.randint(1, 3)
        poly = rand_poly(ring, n, rng)
        table = table_from_poly(poly)
        base = tuple(rand_nonzero(ring, rng) for _ in range(n))
        direction = tuple(rand_nonzero(ring, rng) for _ in range(n))
        line = Line(base, direction)
        check = line_affine_check(poly, line)
        assert check == line_affine_check(table, line)
        outcomes.add(check.ok)
    assert outcomes == {True, False}


@pytest.mark.parametrize(
    "ring",
    [Zmod(4), Zmod(6), Zmod(9), PrimeField(5), GaloisField(2, 2, [1, 1]), GaloisField(3, 2, [1, 0])],
    ids=lambda r: r.spec_text(),
)
def test_table_line_check_matches_the_reference(ring):
    # the table check reads the codes along the line; the reference walks
    # the line's points in RingElem arithmetic: affine, multi-affine and
    # arbitrary tables, random bases and nonzero directions, zero divisors
    # among them over Z/m
    rng = random.Random(f"table line check {ring.spec_text()}")
    outcomes = set()
    for trial in range(60):
        n = rng.randint(1, 3 if ring.size <= 6 else 2)
        if trial % 3 == 0:
            f = table_from_poly(rand_affine_poly(ring, n, rng))
        elif trial % 3 == 1:
            f = table_from_poly(rand_poly(ring, n, rng))
        else:
            f = TableOracle.from_codes(ring, n, [rng.randrange(ring.size) for _ in range(ring.size**n)])
        base = tuple(rand_elem(ring, rng) for _ in range(n))
        direction = tuple(rand_elem(ring, rng) for _ in range(n - 1)) + (rand_nonzero(ring, rng),)
        line = Line(base, tuple(rng.sample(direction, n)))
        check = line_affine_check(f, line)
        assert check == line_check_reference(f, line)
        outcomes.add(check.ok)
    assert outcomes == {True, False}


def test_table_line_check_along_zero_divisor_directions():
    # along (2,0) over Z/4 the line visits each of its two points twice, so
    # f is affine on it iff 2*(f(base + dir) - f(base)) = 0
    Z4 = Zmod(4)
    rng = random.Random("zero divisors")
    outcomes = set()
    for direction in [(2, 0), (0, 2), (2, 2), (2, 1)]:
        for _ in range(10):
            f = TableOracle.from_codes(Z4, 2, [rng.randrange(4) for _ in range(16)])
            base = tuple(rand_elem(Z4, rng) for _ in range(2))
            line = Line(base, tuple(map(Z4.elem, direction)))
            check = line_affine_check(f, line)
            assert check == line_check_reference(f, line)
            outcomes.add(check.ok)
    assert outcomes == {True, False}


def test_table_line_check_rejects_a_line_from_another_ring():
    Z5, Z7 = Zmod(5), Zmod(7)
    f = table_from_poly(MultiAffinePoly(Z5, 2, {0b11: Z5.one}))
    for line in [Line((Z7.zero, Z7.zero), (Z5.one, Z5.zero)), Line(zero_point(Z5, 2), (Z7.one, Z7.one))]:
        with pytest.raises(RingMismatchError):
            line_affine_check(f, line)


def test_line_check_symbolic_over_rationals():
    Q = Rationals()
    # 2*x1*x3 + x2 restricted to r*(1,1,1) is 2r^2 + r: not affine
    poly = MultiAffinePoly(Q, 3, {subset_to_mask((1, 3)): Q.from_int(2), subset_to_mask((2,)): Q.one})
    oracle = poly
    line = Line(zero_point(Q, 3), (Q.one, Q.one, Q.one))
    check = line_affine_check(oracle, line)
    assert not check.ok
    r1, r2, r3 = check.witness
    # witness parameters genuinely refute the affine interpolation
    vals = []
    for r in (r1, r2, r3):
        pt = tuple(r * c for c in line.dir)
        vals.append(oracle.value(pt))
    slope = vals[1] - vals[0]
    assert vals[2] != vals[0] + slope * r3

    affine = MultiAffinePoly(Q, 2, {0: Q.from_int(5), 1: Q.from_int(-3)})
    check = line_affine_check(affine, Line((Q.from_int(2), Q.zero), (Q.one, Q.from_int(4))))
    assert check.ok and check.slope == Q.from_int(-3)


def test_table_oracle_requires_finite_ring_and_totality():
    Q = Rationals()
    with pytest.raises(UnsupportedRingError):
        TableOracle(Q, 1, {(Q.zero,): Q.zero})
    Z3 = Zmod(3)
    points = all_points(Z3, 2)
    table = {pt: Z3.zero for pt in points}
    incomplete = dict(list(table.items())[:-1])
    with pytest.raises(PreconditionError):
        TableOracle(Z3, 2, incomplete)
    # a mislabeled key is caught at construction
    Z5 = Zmod(5)
    for key in [(Z5.zero, Z3.zero), (Z3.zero,), (Z3.zero, Z3.zero, Z3.zero)]:
        bad = dict(table)
        del bad[(Z3.zero, Z3.zero)]
        bad[key] = Z3.zero
        with pytest.raises(PreconditionError):
            TableOracle(Z3, 2, bad)
    # a lookup of a wrong-arity or foreign-ring point raises, naming the point
    f = TableOracle(Z3, 2, dict(table))
    for point in [(Z3.zero,), (Z3.zero, Z3.zero, Z3.zero), (Z5.elem(4), Z3.zero)]:
        with pytest.raises(MissingPointError):
            f.value(point)
    with pytest.raises(MissingPointError, match="point 4 0"):
        f.value((Z5.elem(4), Z3.zero))


def test_restrict_radial_examples():
    Z7 = Zmod(7)
    p = MultiAffinePoly(Z7, 2, {0b11: Z7.one, 0b01: Z7.one})
    assert restrict_radial(p, (Z7.one, Z7.one)) == [Z7.zero, Z7.one, Z7.one]
    const = MultiAffinePoly(Z7, 3, {0: Z7.elem(5)})
    assert restrict_radial(const, (Z7.one, Z7.elem(2), Z7.elem(3))) == [
        Z7.elem(5),
        Z7.zero,
        Z7.zero,
        Z7.zero,
    ]
    Q = Rationals()
    p3 = MultiAffinePoly(Q, 3, {0b111: Q.one})
    assert restrict_radial(p3, (Q.from_int(2), Q.from_int(3), Q.from_int(5))) == [
        Q.zero,
        Q.zero,
        Q.zero,
        Q.from_int(30),
    ]


def test_restrict_radial_consistency():
    rng = random.Random(808)
    Z6 = Zmod(6)
    for _ in range(50):
        n = rng.randint(1, 4)
        poly = rand_poly(Z6, n, rng)
        v = tuple(Z6.element_from_encoding(rng.randrange(6)) for _ in range(n))
        b = restrict_radial(poly, v)
        for r in Z6.elements():
            acc = Z6.zero
            for coef in reversed(b):
                acc = acc * r + coef
            assert acc == poly.value(tuple(r * c for c in v))


def test_value_level_routines_reject_points_of_other_rings():
    # the polynomial routines compute on element values, so each checks
    # that the point it is given lies in the polynomial's ring
    Z7, Z5 = Zmod(7), Zmod(5)
    p = MultiAffinePoly(Z7, 2, {0b11: Z7.one, 0b01: Z7.elem(3)})
    for point in ((Z5.one, Z5.one), (Z7.one, Z5.one), (Z7.one, 1)):
        with pytest.raises(RingMismatchError):
            restrict_radial(p, point)
        with pytest.raises(RingMismatchError):
            p.value(point)
        with pytest.raises(RingMismatchError):
            psi_extract(p, point)
    with pytest.raises(RingMismatchError):
        moment_directions([Z7.one, Z5.one], 3)


def test_is_affine_poly():
    Z7 = Zmod(7)
    assert is_affine_poly(MultiAffinePoly(Z7, 3, {0: Z7.elem(3), 0b001: Z7.elem(2), 0b100: Z7.one}))
    assert not is_affine_poly(MultiAffinePoly(Z7, 2, {0b11: Z7.one}))
    assert is_affine_poly(MultiAffinePoly(Z7, 2, {}))


def test_line_validation():
    Z5 = Zmod(5)
    with pytest.raises(PreconditionError):
        Line(zero_point(Z5, 2), (Z5.zero, Z5.zero))
    with pytest.raises(ArityError):
        Line(zero_point(Z5, 2), (Z5.one,))


def test_poly_arity_cap():
    Z5 = Zmod(5)
    with pytest.raises(PreconditionError):
        MultiAffinePoly(Z5, 17, {})
    with pytest.raises(PreconditionError):
        MultiAffinePoly(Z5, 0, {})


# every function on a two-element ring is affine, so Z/2 has no refuted line
RESTRICTION_RINGS = [Zmod(m) for m in (4, 6, 8, 9, 12, 30)] + [
    PrimeField(p) for p in (3, 5)
] + [GaloisField(2, 2, [1, 1]), GaloisField(3, 2, [1, 0]), Rationals()]


@pytest.mark.parametrize("ring", RESTRICTION_RINGS, ids=lambda ring: ring.spec_text())
def test_restriction_check_matches_full_scan(ring):
    rng = random.Random(ring.spec_text())
    outcomes = set()
    for _ in range(60):
        b = [rand_elem(ring, rng) for _ in range(rng.randint(2, 9))]
        if ring.is_finite and rng.random() < 0.5:
            # the residual of b is then a null polynomial: an affine line
            null = rand_null_codes(ring, len(b), rng)
            b[2:] = [ring.element_from_encoding(c) for c in null[2:]]
        elif not ring.is_finite and rng.random() < 0.3:
            b[2:] = [ring.zero] * (len(b) - 2)
        check = restriction_check(ring, [c.value for c in b])
        assert check == restriction_check_reference(ring, b), (ring, b)
        outcomes.add(check.ok)
    assert outcomes == {True, False}
