import random
from itertools import product

import pytest

from linaff import (
    Certificate,
    DirectionSet,
    MultiAffinePoly,
    PolyOracle,
    PreconditionError,
    PrimeField,
    Rationals,
    RingMismatchError,
    Zmod,
    build_degree_systems,
    family_directions,
    is_affine_poly,
    moment_directions,
    psi_extract,
    recover,
    restrict_radial,
    solve_vandermonde_exact,
)
from linaff.linalg import determinant
from linaff.multiaffine import subset_to_mask
from linaff.recovery import ALL_ZERO, CANNOT_CANCEL, KERNEL

from helpers import is_pointwise_affine, rand_poly, table_from_poly


def _vec(ring, *vals):
    return tuple(ring.elem(v) for v in vals)


def test_family_directions_examples():
    Z5 = Zmod(5)
    single = family_directions(Z5, 2)
    assert single.dirs == (_vec(Z5, 1, 1),)

    all_ones = family_directions(Z5, 3)
    assert all_ones.dirs == (
        _vec(Z5, 1, 1, 0),
        _vec(Z5, 1, 0, 1),
        _vec(Z5, 0, 1, 1),
        _vec(Z5, 1, 1, 1),
    )
    assert len(all_ones) == 2**3 - 4

    Z4 = Zmod(4)
    with pytest.raises(PreconditionError) as err:
        family_directions(Z4, 2, {(1, 2): [Z4.elem(2), Z4.one]})
    assert "J=(1, 2)" in str(err.value) and "j=1" in str(err.value)


def test_family_directions_custom_coefficients():
    Z9 = Zmod(9)
    coeffs = {
        (1, 2): [Z9.elem(2), Z9.elem(4)],
        (1, 3): [Z9.one, Z9.one],
        (2, 3): [Z9.elem(5), Z9.one],
        (1, 2, 3): [Z9.one, Z9.elem(2), Z9.elem(7)],
    }
    dirs = family_directions(Z9, 3, coeffs)
    assert dirs.dirs[0] == _vec(Z9, 2, 4, 0)
    assert dirs.dirs[3] == _vec(Z9, 1, 2, 7)
    with pytest.raises(PreconditionError):
        family_directions(Z9, 3, {(1, 2): [Z9.one, Z9.one]})  # missing subsets


def test_moment_directions_examples():
    F5 = PrimeField(5)
    dirs = moment_directions([F5.one, F5.elem(2), F5.elem(4)], 3)
    assert dirs.dirs == (
        _vec(F5, 1, 1, 1),
        _vec(F5, 1, 2, 4),
        _vec(F5, 1, 4, 1),  # 4^2 = 16 = 1 mod 5
    )
    only = moment_directions([F5.elem(3), F5.elem(2)], 1)
    assert only.dirs == (_vec(F5, 1, 1),)
    Q = Rationals()
    qdirs = moment_directions([Q.from_int(2), Q.from_int(3), Q.from_int(5)], 2)
    assert qdirs.dirs == (_vec(Q, 1, 1, 1), _vec(Q, 2, 3, 5))


def test_direction_set_validation():
    Z5 = Zmod(5)
    with pytest.raises(PreconditionError):
        DirectionSet(Z5, 2, ((Z5.zero, Z5.zero),))
    with pytest.raises(RingMismatchError):
        DirectionSet(Z5, 1, ((Zmod(7).one,),))


def test_build_degree_systems_examples():
    Z5 = Zmod(5)
    dirs = DirectionSet(Z5, 2, (_vec(Z5, 1, 1),))
    systems = build_degree_systems(dirs)
    assert systems[2].rows == [[Z5.one]]

    F5 = PrimeField(5)
    moments = moment_directions([F5.one, F5.elem(2), F5.elem(4)], 3)
    sys3 = build_degree_systems(moments)
    assert [[e.value for e in row] for row in sys3[2].rows] == [
        [1, 1, 1],
        [2, 4, 3],
        [4, 1, 4],
    ]
    # degree-3 row of the all-ones direction is [1]
    assert sys3[3].rows[0] == [F5.one]
    assert sys3[2].masks == (
        subset_to_mask((1, 2)),
        subset_to_mask((1, 3)),
        subset_to_mask((2, 3)),
    )


def test_degree_system_residuals_read_off_the_coefficients():
    Z7 = Zmod(7)
    psi = MultiAffinePoly(Z7, 2, {0b11: Z7.elem(3)})
    v = _vec(Z7, 2, 5)
    assert restrict_radial(psi, v)[2] == Z7.elem(3) * Z7.elem(2) * Z7.elem(5)


def test_solve_trivial_square_system():
    Z4 = Zmod(4)
    out = solve_vandermonde_exact([[Z4.one]], 1, Z4)
    assert out.status == ALL_ZERO
    Q = Rationals()
    out = solve_vandermonde_exact([[Q.one]], 1, Q)
    assert out.status == ALL_ZERO


def test_solve_zmod4_univariate_instance_cannot_cancel():
    # a_1 r + a_2 r^2 = 0 sampled at r = 1, 2 over Z/4: det([[1,1],[2,4]]) = 2
    Z4 = Zmod(4)
    rows = [
        [Z4.elem(1), Z4.elem(1)],
        [Z4.elem(2), Z4.elem(4)],
    ]
    out = solve_vandermonde_exact(rows, 2, Z4)
    assert out.status == CANNOT_CANCEL
    assert out.det == Z4.elem(2)


def test_solve_underdetermined_over_field_gives_kernel():
    F7 = PrimeField(7)
    rows = [[F7.one, F7.one, F7.one]]
    out = solve_vandermonde_exact(rows, 3, F7)
    assert out.status == KERNEL


def test_solve_singular_square_over_field_gives_kernel():
    F5 = PrimeField(5)
    rows = [[F5.one, F5.elem(2)], [F5.elem(2), F5.elem(4)]]
    out = solve_vandermonde_exact(rows, 2, F5)
    assert out.status == KERNEL


def test_solve_tall_system_uses_any_regular_square_subsystem():
    Z6 = Zmod(6)
    rows = [
        [Z6.elem(2), Z6.elem(0)],  # singular-ish rows first
        [Z6.elem(4), Z6.elem(0)],
        [Z6.one, Z6.zero],
        [Z6.zero, Z6.one],
    ]
    out = solve_vandermonde_exact(rows, 2, Z6)
    assert out.status == ALL_ZERO


def _forces_zero_by_enumeration(raw, m):
    cols = len(raw[0])
    for x in product(range(m), repeat=cols):
        if any(x) and all(sum(a * b for a, b in zip(row, x)) % m == 0 for row in raw):
            return False
    return True


def test_solve_all_zero_iff_enumeration_finds_only_zero():
    # full column rank mod every prime p | m is exact: it agrees with a search
    # of (Z/m)^cols, also where every square minor is a zerodivisor
    Z6 = Zmod(6)
    assert solve_vandermonde_exact([[Z6.elem(3)], [Z6.elem(2)]], 1, Z6).status == ALL_ZERO
    rng = random.Random(31337)
    seen = set()
    for _ in range(400):
        m = rng.choice((4, 6, 8, 9, 10, 12, 18))
        ring = Zmod(m)
        cols = rng.randint(1, 3)
        raw = []
        for _ in range(rng.randint(1, 5)):
            # rows scaled by a divisor of m keep zerodivisors frequent
            d = rng.choice([d for d in range(1, m) if m % d == 0])
            raw.append([d * rng.randrange(m) % m for _ in range(cols)])
        rows = [[ring.elem(v) for v in row] for row in raw]
        out = solve_vandermonde_exact(rows, cols, ring)
        assert (out.status == ALL_ZERO) == _forces_zero_by_enumeration(raw, m)
        if out.status == CANNOT_CANCEL:
            live = [row for row in rows if any(not e.is_zero for e in row)]
            assert out.det == determinant(live[:cols], ring)
        seen.add(out.status)
    assert seen == {ALL_ZERO, CANNOT_CANCEL, KERNEL}


def test_recover_cancels_across_the_primes_of_m():
    # the degree-2 rows [3] and [2] give 3c = 0 and 2c = 0 over Z/6, so c = 0
    # although neither 3 nor 2 is regular
    Z6 = Zmod(6)
    poly = MultiAffinePoly(Z6, 2, {0: Z6.one, 0b01: Z6.elem(2), 0b10: Z6.elem(5)})
    dirs = DirectionSet(Z6, 2, (_vec(Z6, 1, 3), _vec(Z6, 1, 2)))
    for oracle in (table_from_poly(poly), PolyOracle(poly)):
        cert = recover(oracle, dirs)
        assert cert.status == "affine"
        assert cert.constant == Z6.one
        assert cert.linear == _vec(Z6, 2, 5)


def test_recover_affine_example():
    Z7 = Zmod(7)
    poly = MultiAffinePoly(Z7, 2, {0: Z7.one, 0b01: Z7.elem(3), 0b10: Z7.elem(2)})
    f = table_from_poly(poly)
    dirs = DirectionSet(Z7, 2, (_vec(Z7, 1, 1),))
    cert = recover(f, dirs)
    assert cert.status == "affine"
    assert cert.constant == Z7.one
    assert cert.linear == (Z7.elem(3), Z7.elem(2))


def test_recover_xy_over_z5_non_affine():
    Z5 = Zmod(5)
    f = table_from_poly(MultiAffinePoly(Z5, 2, {0b11: Z5.one}))
    dirs = DirectionSet(Z5, 2, (_vec(Z5, 1, 1),))
    cert = recover(f, dirs)
    assert cert.status == "non-affine"
    assert cert.line is not None and cert.line.dir == _vec(Z5, 1, 1)


def test_recover_2xy_over_z4_cannot_cancel():
    Z4 = Zmod(4)
    f = table_from_poly(MultiAffinePoly(Z4, 2, {0b11: Z4.elem(2)}))
    dirs = DirectionSet(Z4, 2, (_vec(Z4, 1, 1),))
    for mode in ("exhaustive", "proof"):
        cert = recover(f, dirs, mode=mode)
        assert cert.status == "cannot-cancel"
        assert cert.degree == 2
        assert cert.det == Z4.elem(2)


def test_recover_modes_agree_on_field_cases():
    rng = random.Random(777)
    F11 = PrimeField(11)
    dirs = moment_directions([F11.one, F11.elem(2), F11.elem(4)], 3)
    for _ in range(25):
        poly = rand_poly(F11, 3, rng)
        oracle = PolyOracle(poly)
        a = recover(oracle, dirs, mode="exhaustive")
        b = recover(oracle, dirs, mode="proof")
        assert a.status == b.status


def test_recover_soundness_of_affine_certificates():
    rng = random.Random(12021)
    for ring in (Zmod(6), Zmod(9), PrimeField(7)):
        dirs = family_directions(ring, 2)
        for _ in range(60):
            poly = rand_poly(ring, 2, rng)
            f = table_from_poly(poly)
            cert = recover(f, dirs)
            affine_truth = is_pointwise_affine(f)
            if cert.status == "affine":
                assert affine_truth
                for pt in product(ring.elements(), repeat=2):
                    want = cert.constant
                    for c, x in zip(cert.linear, pt):
                        want = want + c * x
                    assert f.value(pt) == want
            elif cert.status == "non-affine":
                assert not affine_truth


def test_recover_exhaustive_zmod5_two_variables():
    # table-oracle drill over all 5^4 multi-affine polynomials
    Z5 = Zmod(5)
    dirs = DirectionSet(Z5, 2, (_vec(Z5, 1, 1),))
    affine_count = 0
    for c0 in range(5):
        for c1 in range(5):
            for c2 in range(5):
                for c12 in range(5):
                    poly = MultiAffinePoly(
                        Z5,
                        2,
                        {
                            0: Z5.elem(c0),
                            0b01: Z5.elem(c1),
                            0b10: Z5.elem(c2),
                            0b11: Z5.elem(c12),
                        },
                    )
                    cert = recover(table_from_poly(poly), dirs)
                    if cert.status == "affine":
                        affine_count += 1
                        assert c12 == 0
                    else:
                        assert cert.status == "non-affine"
                        assert c12 != 0
    assert affine_count == 5**3


def test_completeness_at_boundary_moment_directions():
    # over fields above the 2^{n-1} threshold, the N moment directions decide
    # every polynomial correctly: 500 random cases per arity
    rng = random.Random(424242)
    setups = [
        (PrimeField(11), 3, (1, 2, 4)),
        (PrimeField(17), 4, (1, 3, 9, 13)),
    ]
    for fld, n, nodes in setups:
        from linaff import minimal_direction_count

        dirs = moment_directions([fld.elem(v) for v in nodes], minimal_direction_count(n))
        for _ in range(500):
            poly = rand_poly(fld, n, rng)
            cert = recover(PolyOracle(poly), dirs)
            assert cert.status == ("affine" if is_affine_poly(poly) else "non-affine")


def test_cannot_cancel_agrees_across_oracle_backends():
    Z4 = Zmod(4)
    poly = MultiAffinePoly(Z4, 2, {0b11: Z4.elem(2)})
    dirs = DirectionSet(Z4, 2, (_vec(Z4, 1, 1),))
    for oracle in (table_from_poly(poly), PolyOracle(poly)):
        cert = recover(oracle, dirs)
        assert cert.status == "cannot-cancel"
        assert cert.degree == 2 and cert.det == Z4.elem(2)


def test_recover_family_variant_completeness():
    # with all-ones family directions and regular characteristic, recovery is
    # complete on random polynomials
    rng = random.Random(60022)
    Z7 = Zmod(7)
    dirs = family_directions(Z7, 3)
    for _ in range(60):
        poly = rand_poly(Z7, 3, rng)
        cert = recover(PolyOracle(poly), dirs)
        if is_affine_poly(poly):
            assert cert.status == "affine"
        else:
            assert cert.status == "non-affine"


def test_recover_with_regular_coefficients_over_zmod25():
    # composite modulus, non-identity regular coefficients
    rng = random.Random(515)
    Z25 = Zmod(25)
    coeffs = {(1, 2): [Z25.elem(2), Z25.elem(3)]}
    dirs = family_directions(Z25, 2, coeffs)
    for _ in range(40):
        poly = rand_poly(Z25, 2, rng)
        cert = recover(PolyOracle(poly), dirs)
        if is_affine_poly(poly):
            assert cert.status == "affine"
        else:
            assert cert.status == "non-affine"


def test_recover_kernel_branch_reports_surviving_coefficient():
    # no directions at all: degree-2 coefficients survive the (empty) systems
    Z7 = Zmod(7)
    poly = MultiAffinePoly(Z7, 3, {subset_to_mask((1, 2)): Z7.elem(3)})
    dirs = DirectionSet(Z7, 3, ())
    cert = recover(PolyOracle(poly), dirs)
    assert cert.status == "non-affine"
    assert cert.degree == 2
    assert cert.mask == (1, 2)
    assert cert.coeff == Z7.elem(3)


def test_recover_affine_with_insufficient_directions_still_verifies():
    Z7 = Zmod(7)
    poly = MultiAffinePoly(Z7, 3, {0: Z7.elem(4), 0b100: Z7.elem(2)})
    dirs = DirectionSet(Z7, 3, ())
    cert = recover(PolyOracle(poly), dirs)
    assert cert.status == "affine"
    assert cert.constant == Z7.elem(4)


def test_recover_over_rationals_symbolically():
    Q = Rationals()
    poly = MultiAffinePoly(Q, 2, {0: Q.parse_element("1/2"), 0b01: Q.from_int(-3)})
    dirs = DirectionSet(Q, 2, (_vec(Q, 1, 1),))
    cert = recover(PolyOracle(poly), dirs)
    assert cert.status == "affine"
    assert cert.constant == Q.parse_element("1/2")
    assert cert.linear == (Q.from_int(-3), Q.zero)

    bad = MultiAffinePoly(Q, 2, {0b11: Q.parse_element("2/3")})
    cert = recover(PolyOracle(bad), dirs)
    assert cert.status == "non-affine"


def test_recover_input_validation():
    Z5 = Zmod(5)
    f = table_from_poly(MultiAffinePoly(Z5, 2, {}))
    with pytest.raises(RingMismatchError):
        recover(f, DirectionSet(Zmod(7), 2, ((Zmod(7).one, Zmod(7).one),)))
    with pytest.raises(PreconditionError):
        recover(f, DirectionSet(Z5, 2, (_vec(Z5, 1, 1),)), mode="sideways")


def test_monotone_degree_stripping():
    # whenever every degree system forces zero, the extracted polynomial has
    # no surviving coefficient of degree >= 2
    rng = random.Random(3111)
    F11 = PrimeField(11)
    dirs = moment_directions([F11.one, F11.elem(2), F11.elem(4)], 3)
    for _ in range(40):
        poly = rand_poly(F11, 3, rng)
        oracle = PolyOracle(poly)
        psi = psi_extract(oracle)
        systems = build_degree_systems(dirs)
        if all(
            solve_vandermonde_exact(systems[k].rows, len(systems[k].masks), F11).status
            == ALL_ZERO
            and all(restrict_radial(psi, v)[k].is_zero for v in dirs.dirs)
            for k in systems
        ):
            assert is_affine_poly(psi)


def test_certificate_emitter_contract_fields():
    Z4 = Zmod(4)
    cert = Certificate("cannot-cancel", degree=2, det=Z4.elem(2))
    assert cert.status == "cannot-cancel"
    assert not cert.ok


def test_recover_randomized_sweep_is_total_and_sound():
    # mixed rings, oracle kinds, direction counts and modes: recover must
    # always terminate in one of the three certificate states and stay sound
    from linaff import GaloisField

    rng = random.Random(987654321)
    rings = [Zmod(m) for m in (2, 3, 4, 6, 9, 12)] + [
        GaloisField(2, 2, [1, 1]),
        PrimeField(13),
    ]
    for _ in range(300):
        ring = rng.choice(rings)
        n = rng.randint(1, 3)
        poly = rand_poly(ring, n, rng)
        use_table = rng.random() < 0.4 and ring.size**n <= 1000
        oracle = table_from_poly(poly) if use_table else PolyOracle(poly)
        dirs = []
        while len(dirs) < rng.randint(0, 3):
            v = tuple(
                ring.element_from_encoding(rng.randrange(ring.size)) for _ in range(n)
            )
            if any(not c.is_zero for c in v):
                dirs.append(v)
        cert = recover(
            oracle,
            DirectionSet(ring, n, tuple(dirs)),
            mode=rng.choice(["exhaustive", "proof"]),
        )
        assert cert.status in ("affine", "non-affine", "cannot-cancel")
        if cert.status == "affine":
            if use_table:
                assert is_pointwise_affine(oracle)
            else:
                assert is_affine_poly(poly)
