import random
from fractions import Fraction
from itertools import product

import pytest

from linaff import (
    CannotCancel,
    DirectionSet,
    GaloisField,
    InconsistencyError,
    MultiAffinePoly,
    PreconditionError,
    PrimeField,
    Rationals,
    TableOracle,
    Zmod,
    degree_system,
    family_directions,
    is_affine_poly,
    minimal_direction_count,
    moment_directions,
    psi_extract,
    recover,
)
from linaff import recovery
from linaff.cli import (
    EXIT_INTERNAL,
    format_function_table,
    parse_function_table,
    run_subcommand,
)
from linaff.linalg import kernel_vector
from linaff.multiaffine import (
    mask_to_subset,
    point_values,
    radial_values,
    subset_to_mask,
    unit_point,
)
from linaff.recovery import _coordinate_line_failure, _verified_affine

from helpers import (
    all_points,
    coordinate_line_failure_reference,
    elements_of,
    emit_certificate,
    is_pointwise_affine,
    kernel_vector_reference,
    rand_affine_poly,
    rand_nonaffine_poly,
    rand_nonzero,
    rand_poly,
    rand_elem,
    recover_poly_reference,
    recover_reference,
    radial_reference,
    table_from_function,
    table_from_poly,
)


GF4 = GaloisField(2, 2, [1, 1])
GF8 = GaloisField(2, 3, [1, 1, 0])
GF9 = GaloisField(3, 2, [1, 0])


def _vec(ring, *vals):
    """A direction: the element codes of vals."""
    return tuple(ring.elem(v).value for v in vals)


def _elems(ring, *vals):
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
    dirs = moment_directions(F5, (1, 2, 4), 3)
    assert dirs.dirs == (
        _vec(F5, 1, 1, 1),
        _vec(F5, 1, 2, 4),
        _vec(F5, 1, 4, 1),  # 4^2 = 16 = 1 mod 5
    )
    only = moment_directions(F5, (3, 2), 1)
    assert only.dirs == (_vec(F5, 1, 1),)
    Q = Rationals()
    qdirs = moment_directions(Q, (Fraction(2), Fraction(3), Fraction(5)), 2)
    assert qdirs.dirs == (_vec(Q, 1, 1, 1), _vec(Q, 2, 3, 5))


@pytest.mark.parametrize(
    "nodes",
    [
        [Zmod(12).elem(v) for v in (1, 5, 7, 11, 3)],
        [GaloisField(3, 2, [2, 1]).elem(v) for v in (1, 2, 4, 8)],
        [Rationals().elem(v) for v in ("2", "-3/4", "5", "1/7")],
    ],
)
def test_moment_directions_match_powers_from_scratch(nodes):
    count = 20
    dirs = moment_directions(nodes[0].ring, [s.value for s in nodes], count)
    assert dirs.dirs == tuple(tuple((s ** (i - 1)).value for s in nodes) for i in range(1, count + 1))


def test_direction_set_validation():
    Z5 = Zmod(5)
    with pytest.raises(PreconditionError):
        DirectionSet(Z5, 2, ((0, 0),))
    with pytest.raises(PreconditionError):
        DirectionSet(Z5, 1, ((Zmod(7).one,),))


@pytest.mark.parametrize(
    "ring, arity, dirs, message",
    [
        (Zmod(5), 2, ((Zmod(5).one, Zmod(5).one),),
         "direction (1@zmod 5, 1@zmod 5) is not a tuple of codes of zmod 5"),
        (Rationals(), 2, ((Fraction(1), Rationals().one),),
         "direction (Fraction(1, 1), 1@rational) is not a tuple of codes of rational"),
        (Rationals(), 1, ((1,),), "direction (1,) is not a tuple of codes of rational"),
        (Zmod(5), 2, ((1, 5),), "direction (1, 5) is not a tuple of codes of zmod 5"),
        (Zmod(5), 2, ((-1, 1),), "direction (-1, 1) is not a tuple of codes of zmod 5"),
        (GF9, 1, ((9,),), "direction (9,) is not a tuple of codes of gf 3 2 1 0"),
        (Zmod(5), 2, ((True, 1),), "direction (True, 1) is not a tuple of codes of zmod 5"),
        (Zmod(5), 2, ((1, 1, 1),), "direction (1, 1, 1) has arity 3, expected 2"),
        (Rationals(), 2, ((Fraction(1, 2),),), "direction (1/2) has arity 1, expected 2"),
        (Zmod(5), 2, ((1, 1), ()), "direction () has arity 0, expected 2"),
        (Zmod(5), 2, ((1, 1), (0, 0)), "directions must be nonzero"),
        (Rationals(), 2, ((Fraction(0), Fraction(0)),), "directions must be nonzero"),
    ],
    ids=["elements-zmod5", "element-rational", "int-rational", "out-of-range", "negative",
         "out-of-range-gf9", "bool", "arity", "arity-rational", "arity-empty", "zero",
         "zero-rational"],
)
def test_direction_set_takes_code_tuples_only(ring, arity, dirs, message):
    # the constructor is the one check of a direction: its coordinates are
    # codes of the ring, its arity is the set's, and it is nonzero
    with pytest.raises(PreconditionError) as err:
        DirectionSet(ring, arity, dirs)
    assert str(err.value) == message


def test_degree_system_examples():
    Z5 = Zmod(5)
    dirs = DirectionSet(Z5, 2, (_vec(Z5, 1, 1),))
    assert degree_system(dirs, 2) == ((0b11,), [[1]])

    F5 = PrimeField(5)
    moments = moment_directions(F5, (1, 2, 4), 3)
    masks, rows = degree_system(moments, 2)
    assert rows == [
        [1, 1, 1],
        [2, 4, 3],
        [4, 1, 4],
    ]
    # degree-3 row of the all-ones direction is [1]
    assert degree_system(moments, 3)[1][0] == [1]
    assert masks == (
        subset_to_mask((1, 2)),
        subset_to_mask((1, 3)),
        subset_to_mask((2, 3)),
    )


def test_degree_system_residuals_read_off_the_coefficients():
    Z7 = Zmod(7)
    psi = MultiAffinePoly(Z7, 2, {0b11: Z7.elem(3)})
    v = _elems(Z7, 2, 5)
    b = radial_values(psi, point_values(Z7, v))
    assert b[2] == (Z7.elem(3) * Z7.elem(2) * Z7.elem(5)).value


def test_solve_trivial_square_system():
    Z4 = Zmod(4)
    assert kernel_vector([[1]], 1, Z4) is None
    Q = Rationals()
    assert kernel_vector([[Q.one.value]], 1, Q) is None


def test_solve_zmod4_univariate_instance_cannot_cancel():
    # a_1 r + a_2 r^2 = 0 sampled at r = 1, 2 over Z/4: det([[1,1],[2,4]]) = 2,
    # and the ring cannot cancel it: mod 2 the rows are [1,1] and [0,0], whose
    # kernel vector (1,1) lifts to the nonzero solution (2,2)
    Z4 = Zmod(4)
    rows = [
        [Z4.elem(1).value, Z4.elem(1).value],
        [Z4.elem(2).value, Z4.elem(4).value],
    ]
    assert kernel_vector(rows, 2, Z4) == [2, 2]


def test_solve_underdetermined_over_field_gives_kernel():
    F7 = PrimeField(7)
    rows = [[1, 1, 1]]
    assert kernel_vector(rows, 3, F7) is not None


def test_solve_singular_square_over_field_gives_kernel():
    F5 = PrimeField(5)
    rows = [[1, 2], [2, 4]]
    assert kernel_vector(rows, 2, F5) is not None


def test_solve_tall_system_uses_any_regular_square_subsystem():
    Z6 = Zmod(6)
    rows = [
        [2, 0],  # singular-ish rows first
        [4, 0],
        [1, 0],
        [0, 1],
    ]
    assert kernel_vector(rows, 2, Z6) is None


def _forces_zero_by_enumeration(raw, m):
    cols = len(raw[0])
    for x in product(range(m), repeat=cols):
        if any(x) and all(sum(a * b for a, b in zip(row, x)) % m == 0 for row in raw):
            return False
    return True


def test_solve_all_zero_iff_enumeration_finds_only_zero(monkeypatch):
    # full column rank mod every prime p | m is exact: it agrees with a search
    # of (Z/m)^cols where that is small and with the per-prime reference
    # elsewhere, also where every square minor is a zerodivisor.  The second
    # pass runs with prime_factors raising: the kernel splits m, never factors it
    Z6 = Zmod(6)
    assert kernel_vector([[3], [2]], 1, Z6) is None
    rng = random.Random(31337)
    systems = []
    for m in range(2, 65):
        for _ in range(40):
            cols = rng.randint(1, 3)
            raw = []
            for _ in range(rng.randint(1, 5)):
                # rows scaled by a divisor of m keep zerodivisors frequent
                d = rng.choice([d for d in range(1, m) if m % d == 0])
                raw.append([d * rng.randrange(m) % m for _ in range(cols)])
            if m**cols <= 2000:
                forced = _forces_zero_by_enumeration(raw, m)
            else:
                ring = Zmod(m)
                rows = [[ring.elem(v) for v in row] for row in raw]
                forced = kernel_vector_reference(rows, cols, ring) is None
            systems.append((m, cols, raw, forced))

    def no_factoring(m):
        raise AssertionError(f"factored {m}")

    for patched in (False, True):
        if patched:
            monkeypatch.setattr("linaff.rings.prime_factors", no_factoring)
        for m, cols, raw, forced in systems:
            ring = Zmod(m)  # a fresh ring, with no factorization cached
            vec = kernel_vector(raw, cols, ring)
            assert (vec is None) == forced
            if vec is not None:
                assert len(vec) == cols and any(vec)
                for row in raw:
                    assert sum(a * v for a, v in zip(row, vec)) % m == 0
    assert {forced for *_, forced in systems} == {True, False}


def test_recover_cancels_across_the_primes_of_m():
    # the degree-2 rows [3] and [2] give 3c = 0 and 2c = 0 over Z/6, so c = 0
    # although neither 3 nor 2 is regular
    Z6 = Zmod(6)
    poly = MultiAffinePoly(Z6, 2, {0: Z6.one, 0b01: Z6.elem(2), 0b10: Z6.elem(5)})
    dirs = DirectionSet(Z6, 2, (_vec(Z6, 1, 3), _vec(Z6, 1, 2)))
    for oracle in (table_from_poly(poly), poly):
        cert = recover(oracle, dirs)
        assert cert.status == "affine"
        assert cert.constant == Z6.one
        assert cert.linear == _elems(Z6, 2, 5)


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
    assert cert.line is not None and cert.line.dir == _elems(Z5, 1, 1)


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
    dirs = moment_directions(F11, (1, 2, 4), 3)
    for _ in range(25):
        poly = rand_poly(F11, 3, rng)
        oracle = poly
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

        dirs = moment_directions(fld, nodes, minimal_direction_count(n))
        for _ in range(500):
            poly = rand_poly(fld, n, rng)
            cert = recover(poly, dirs)
            assert cert.status == ("affine" if is_affine_poly(poly) else "non-affine")


def test_cannot_cancel_agrees_across_oracle_backends():
    Z4 = Zmod(4)
    poly = MultiAffinePoly(Z4, 2, {0b11: Z4.elem(2)})
    dirs = DirectionSet(Z4, 2, (_vec(Z4, 1, 1),))
    for oracle in (table_from_poly(poly), poly):
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
        cert = recover(poly, dirs)
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
        cert = recover(poly, dirs)
        if is_affine_poly(poly):
            assert cert.status == "affine"
        else:
            assert cert.status == "non-affine"


def test_recover_kernel_branch_reports_surviving_coefficient():
    # no directions at all: degree-2 coefficients survive the (empty) systems
    Z7 = Zmod(7)
    poly = MultiAffinePoly(Z7, 3, {subset_to_mask((1, 2)): Z7.elem(3)})
    dirs = DirectionSet(Z7, 3, ())
    cert = recover(poly, dirs)
    assert cert.status == "non-affine"
    assert cert.degree == 2
    assert cert.mask == (1, 2)
    assert cert.coeff == Z7.elem(3)


def test_recover_affine_with_insufficient_directions_still_verifies():
    Z7 = Zmod(7)
    poly = MultiAffinePoly(Z7, 3, {0: Z7.elem(4), 0b100: Z7.elem(2)})
    dirs = DirectionSet(Z7, 3, ())
    cert = recover(poly, dirs)
    assert cert.status == "affine"
    assert cert.constant == Z7.elem(4)


def test_recover_over_rationals_symbolically():
    Q = Rationals()
    poly = MultiAffinePoly(Q, 2, {0: Q.parse_element("1/2"), 0b01: Q.from_int(-3)})
    dirs = DirectionSet(Q, 2, (_vec(Q, 1, 1),))
    cert = recover(poly, dirs)
    assert cert.status == "affine"
    assert cert.constant == Q.parse_element("1/2")
    assert cert.linear == (Q.from_int(-3), Q.zero)

    bad = MultiAffinePoly(Q, 2, {0b11: Q.parse_element("2/3")})
    cert = recover(bad, dirs)
    assert cert.status == "non-affine"


def test_recover_input_validation():
    Z5 = Zmod(5)
    f = table_from_poly(MultiAffinePoly(Z5, 2, {}))
    with pytest.raises(PreconditionError,
                       match="^direction set ring differs from the oracle ring$"):
        recover(f, DirectionSet(Zmod(7), 2, ((1, 1),)))
    with pytest.raises(PreconditionError):
        recover(f, DirectionSet(Z5, 2, (_vec(Z5, 1, 1),)), mode="sideways")


def test_monotone_degree_stripping():
    # whenever every degree system forces zero, the extracted polynomial has
    # no surviving coefficient of degree >= 2
    rng = random.Random(3111)
    F11 = PrimeField(11)
    dirs = moment_directions(F11, (1, 2, 4), 3)
    for _ in range(40):
        poly = rand_poly(F11, 3, rng)
        oracle = poly
        psi = psi_extract(oracle)
        systems = {k: degree_system(dirs, k) for k in range(2, 4)}
        if all(
            kernel_vector(rows, len(masks), F11) is None
            and all(radial_values(psi, v)[k] == 0 for v in dirs.dirs)
            for k, (masks, rows) in systems.items()
        ):
            assert is_affine_poly(psi)


def test_certificate_emitter_contract_fields():
    Z4 = Zmod(4)
    cert = CannotCancel(2, Z4.elem(2))
    assert cert.status == "cannot-cancel"
    assert emit_certificate(cert) == "status: cannot-cancel\ndegree: 2\ndet: 2\n"


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
        oracle = table_from_poly(poly) if use_table else poly
        dirs = []
        while len(dirs) < rng.randint(0, 3):
            v = tuple(
                ring.element_from_encoding(rng.randrange(ring.size)) for _ in range(n)
            )
            if any(not c.is_zero for c in v):
                dirs.append(tuple(c.value for c in v))
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


_CODE_PATH_RINGS = [
    Zmod(4),
    Zmod(6),
    Zmod(8),
    Zmod(9),
    PrimeField(5),
    PrimeField(7),
    GaloisField(2, 2, [1, 1]),
    GaloisField(2, 3, [1, 1, 0]),
    GaloisField(3, 2, [1, 0]),
]


def _seeded_tables(ring, n, rng):
    """Affine, multi-affine and (m/2) x_i x_j tables, and each perturbed at one point."""
    polys = [rand_affine_poly(ring, n, rng), rand_poly(ring, n, rng)]
    if n >= 2:
        polys.append(rand_nonaffine_poly(ring, n, rng))
        if ring.characteristic % 2 == 0 and not ring.is_field:
            i, j = rng.sample(range(n), 2)
            half = {(1 << i) | (1 << j): ring.from_int(ring.characteristic // 2)}
            polys.append(MultiAffinePoly(ring, n, {**rand_affine_poly(ring, n, rng).coeffs, **half}))
    tables = []
    for poly in polys:
        values = {pt: poly.value(pt) for pt in all_points(ring, n)}
        tables.append(values)
        bumped = dict(values)
        point = rng.choice(list(bumped))
        bumped[point] = bumped[point] + rand_nonzero(ring, rng)
        tables.append(bumped)
    return tables


def _seeded_dirs(ring, n, rng, k):
    if k % 3 == 0:
        return family_directions(ring, n)
    dirs = []
    while len(dirs) < rng.randint(1, 3):
        v = tuple(ring.element_from_encoding(rng.randrange(ring.size)) for _ in range(n))
        if any(not c.is_zero for c in v):
            dirs.append(tuple(c.value for c in v))
    return DirectionSet(ring, n, tuple(dirs))


@pytest.mark.parametrize("ring", _CODE_PATH_RINGS, ids=lambda r: r.spec_text())
def test_table_code_path_matches_ringelem_reference(ring):
    # recover on the table's element codes answers byte-identically to the
    # RingElem coordinate-line scan followed by the poly pipeline, and the
    # table text round-trips through the parser into the same codes
    rng = random.Random(f"code-path {ring.spec_text()}")
    answers = set()
    for n in (1, 2, 3):
        for k, values in enumerate(_seeded_tables(ring, n, rng)):
            f = TableOracle(ring, n, values)
            text = format_function_table(f)
            g = parse_function_table(text)
            assert g.codes == f.codes and format_function_table(g) == text
            assert all(g.value(pt) == v for pt, v in values.items())
            dirs = _seeded_dirs(ring, n, rng, k)
            mode = "proof" if k % 4 == 3 else "exhaustive"
            got = emit_certificate(recover(g, dirs, mode))
            assert got == emit_certificate(recover_reference(f, dirs, mode))
            answers.add(got.split("\n")[0])
    assert {"status: affine", "status: non-affine"} <= answers


def _peeled_tables(ring, n, rng):
    """A multi-affine table, then for k = 2..n tables f = g + x_1*h, g and h
    multi-affine, with g or h bumped by m(x_2..x_{k-1}) at the points whose
    x_k..x_n are one p, m multi-affine with m(0) nonzero: affine on every
    line of axes 1..k-1 and refuted on axis k.  Each is (table, k or None)."""
    tables = [(table_from_poly(rand_poly(ring, n, rng)), None)]
    for k in range(2, n + 1):
        for bumped in range(2):
            g, h = (
                {y: poly.value(y) for y in all_points(ring, n - 1)}
                for poly in (rand_poly(ring, n - 1, rng), rand_poly(ring, n - 1, rng))
            )
            coeffs = dict(rand_poly(ring, k - 2, rng).coeffs) if k > 2 else {}
            coeffs[0] = rand_nonzero(ring, rng)
            m = MultiAffinePoly(ring, n - 1, coeffs)
            p = rng.choice(all_points(ring, n - k + 1))
            part = (g, h)[bumped]
            for y in part:
                if y[k - 2 :] == p:
                    part[y] = part[y] + m.value(y)
            f = table_from_function(ring, n, lambda x: g[x[1:]] + x[0] * h[x[1:]])
            tables.append((f, k))
    return tables


@pytest.mark.parametrize(
    "ring",
    [Zmod(4), Zmod(6), PrimeField(5), GaloisField(2, 2, [1, 1]), GaloisField(3, 2, [1, 0])],
    ids=lambda r: r.spec_text(),
)
def test_coordinate_lines_past_the_first_axis_match_the_reference(ring):
    # each axis is checked a slab at a time on its parts with a {0,1} prefix;
    # each answer, witness included, must be the reference's
    rng = random.Random(f"peeled {ring.spec_text()}")
    for n in (1, 2, 3, 4):
        for f, k in _peeled_tables(ring, n, rng):
            want = coordinate_line_failure_reference(f)
            assert _coordinate_line_failure(f) == want
            assert (want is None) if k is None else (want.line.dir == unit_point(ring, n, k))


def _prefix_table(ring, n, a, rng):
    """f = sum over J within {1..a-1} of x^J * c_J(x_a..x_n), multi-affine in
    x_1..x_{a-1}: every c_J multi-affine, then bumped at one or two points
    for a nonempty set of nonempty J, so no line with x_1..x_{a-1} = 0 fails."""
    rest = all_points(ring, n - a + 1)
    c = []
    for _ in range(1 << (a - 1)):
        poly = rand_poly(ring, n - a + 1, rng)
        c.append({y: poly.value(y) for y in rest})
    for mask in rng.sample(range(1, 1 << (a - 1)), rng.randint(1, (1 << (a - 1)) - 1)):
        for y in rng.sample(rest, rng.randint(1, 2)):
            c[mask][y] = c[mask][y] + rand_nonzero(ring, rng)

    def f(x):
        total = ring.zero
        for mask, c_mask in enumerate(c):
            term = c_mask[x[a - 1 :]]
            for j in mask_to_subset(mask):
                term = term * x[j - 1]
            total = total + term
        return total

    return table_from_function(ring, n, f)


@pytest.mark.parametrize(
    "ring",
    [Zmod(4), Zmod(6), Zmod(9), PrimeField(5), GF4, GF8, GF9],
    ids=lambda r: r.spec_text(),
)
def test_the_first_refuted_coordinate_line_has_a_zero_one_prefix(ring):
    # once the lines of axes 1..a-1 pass, f is affine in x_1..x_{a-1}, so the
    # first refuted a-line has x_1..x_{a-1} in {0,1}: the slab scan checks
    # only those prefixes and must still name the reference's witness
    rng = random.Random(f"prefix {ring.spec_text()}")
    prefixes = set()
    for n in (2, 3, 4):
        for a in range(2, n + 1):
            f = _prefix_table(ring, n, a, rng)
            want = coordinate_line_failure_reference(f)
            assert _coordinate_line_failure(f) == want
            axis = want.line.dir.index(ring.one) + 1
            prefix = tuple(c.value for c in want.line.base[: axis - 1])
            assert axis >= a and set(prefix) <= {0, 1} and any(prefix[: a - 1])
            prefixes.add(prefix)
    assert len(prefixes) >= 3


def test_coordinate_lines_without_a_witness_are_an_internal_error(tmp_path, monkeypatch):
    # slabs 0 and 1 of a part match its lines by construction, so a part
    # that differs only there names no line: a fault in Ring.lines, not an answer
    f = table_from_poly(rand_poly(Zmod(4), 3, random.Random(3)))
    lines = Zmod.lines

    def flipped(ring, g, h):
        want = lines(ring, g, h)
        want[0] = (want[0] + 1) % ring.size
        return want

    monkeypatch.setattr(Zmod, "lines", flipped)
    message = "coordinate lines refuted, but no line names a witness"
    with pytest.raises(InconsistencyError, match=message):
        _coordinate_line_failure(f)
    path = tmp_path / "f.tbl"
    path.write_text(format_function_table(f))
    argv = ["recover", "--input", str(path), "--family"]
    assert run_subcommand(argv) == (EXIT_INTERNAL, f"internal error: {message}\n")


_POLY_PATH_RINGS = [Zmod(m) for m in (4, 6, 8, 9, 12)] + [
    PrimeField(5),
    PrimeField(7),
    GaloisField(2, 2, [1, 1]),
    GaloisField(2, 3, [1, 1, 0]),
    GaloisField(3, 2, [1, 0]),
    Rationals(),
]


def _seeded_polys(ring, n, rng):
    """Affine, planted (random with a coefficient of degree >= 2) and, over
    Z/m, hidden (m/p) x_i x_j polynomials on a random affine part."""
    polys = [rand_affine_poly(ring, n, rng), rand_nonaffine_poly(ring, n, rng)]
    for p in ring.primes if not ring.is_field else ():
        i, j = rng.sample(range(n), 2)
        hidden = {(1 << i) | (1 << j): ring.from_int(ring.m // p)}
        polys.append(MultiAffinePoly(ring, n, {**rand_affine_poly(ring, n, rng).coeffs, **hidden}))
    return polys


def _seeded_direction_sets(ring, n, rng):
    """Random directions, the one-per-subset family, and moment directions."""
    dirs = []
    while len(dirs) < rng.randint(1, 4):
        v = tuple(rand_elem(ring, rng) for _ in range(n))
        if any(not c.is_zero for c in v):
            dirs.append(tuple(c.value for c in v))
    nodes = [rand_elem(ring, rng) for _ in range(n)]
    nodes[0] = rand_nonzero(ring, rng)
    count = rng.randint(1, minimal_direction_count(n) + 1)
    return [
        DirectionSet(ring, n, tuple(dirs)),
        family_directions(ring, n),
        moment_directions(ring, [s.value for s in nodes], count),
    ]


@pytest.mark.parametrize("ring", _POLY_PATH_RINGS, ids=lambda r: r.spec_text())
def test_poly_recover_matches_full_restriction_reference(ring):
    # recover decides each radial line from psi's coefficients of degree
    # >= 2 on element values; the reference builds every direction's full
    # restriction b_0..b_n in RingElem arithmetic and checks it
    rng = random.Random(f"poly-path {ring.spec_text()}")
    answers = set()
    for n in (2, 3, 4, 5):
        for poly in _seeded_polys(ring, n, rng):
            for dirs in _seeded_direction_sets(ring, n, rng):
                for v in (elements_of(ring, v) for v in dirs.dirs[:2]):
                    want = [c.value for c in radial_reference(poly, v)]
                    assert radial_values(poly, point_values(ring, v)) == want
                for mode in ("exhaustive", "proof"):
                    got = emit_certificate(recover(poly, dirs, mode))
                    assert got == emit_certificate(recover_poly_reference(poly, dirs, mode))
                    answers.add(got.split("\n")[0])
    assert {"status: affine", "status: non-affine"} <= answers
    if not ring.is_field:
        assert "status: cannot-cancel" in answers


def test_affine_reverify_checks_every_point():
    # a table that differs from the affine candidate at a point off the
    # origin and the basis vectors must fail the pointwise re-verify
    for ring in (Zmod(6), GaloisField(3, 2, [1, 0])):
        rng = random.Random(ring.spec_text())
        poly = rand_affine_poly(ring, 3, rng)
        values = {pt: poly.value(pt) for pt in all_points(ring, 3)}
        _verified_affine(TableOracle(ring, 3, values), psi_extract(poly))
        for point in rng.sample([pt for pt in values if sum(not c.is_zero for c in pt) >= 2], 5):
            bumped = dict(values)
            bumped[point] = bumped[point] + ring.one
            with pytest.raises(InconsistencyError):
                _verified_affine(TableOracle(ring, 3, bumped), psi_extract(poly))


def test_recover_reverifies_an_affine_table_at_every_point(tmp_path, monkeypatch):
    # the table passes every coordinate line; a psi with one linear
    # coefficient off must fail recover's pointwise re-verify, end to end
    for ring in (Zmod(6), GF9):
        poly = rand_affine_poly(ring, 3, random.Random(f"reverify {ring.spec_text()}"))
        f = table_from_poly(poly)
        wrong = MultiAffinePoly(ring, 3, {**poly.coeffs, 0b010: poly.coeff(0b010) + ring.one})
        monkeypatch.setattr(recovery, "psi_extract", lambda f, base=None: wrong)
        message = "affine certificate failed pointwise verification"
        with pytest.raises(InconsistencyError, match=message):
            recover(f, family_directions(ring, 3))
        path = tmp_path / "f.tbl"
        path.write_text(format_function_table(f))
        argv = ["recover", "--input", str(path), "--family"]
        assert run_subcommand(argv) == (EXIT_INTERNAL, f"internal error: {message}\n")
