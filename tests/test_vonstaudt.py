import random
import time
from itertools import product

import pytest

from linaff import (
    GaloisField,
    PreconditionError,
    PrimeField,
    VectorMapTable,
    Zmod,
    check_hypotheses,
    enumerate_affine_lines,
    recover_semilinear,
)

from linaff.multiaffine import Line, point_index, vector_line
from linaff.rings import GF_MAX_SIZE, RingElem, frobenius, is_prime
from linaff.vonstaudt import MAX_LINE_POINTS, _decompose, _lines_with_points

from helpers import affine_lines_reference, check_hypotheses_reference, separation_failure

GF4 = GaloisField(2, 2, [1, 1])
GF8 = GaloisField(2, 3, [1, 1, 0])
GF9 = GaloisField(3, 2, [1, 0])


def _table(fld, dim_in, dim_out, func) -> VectorMapTable:
    mapping = {v: func(v) for v in product(fld.elements(), repeat=dim_in)}
    return VectorMapTable(fld, dim_in, dim_out, mapping)


def _twisted_map(fld, matrix_cols, offset, powers):
    """v -> offset + sum_i v_i^(p^powers[i]) * matrix_cols[i]: a Frobenius power per axis."""
    p = fld.characteristic

    def func(v):
        image = offset
        for coord, col, j in zip(v, matrix_cols, powers):
            scaled = tuple((coord ** (p**j)) * c for c in col)
            image = tuple(a + b for a, b in zip(image, scaled))
        return image

    return func


def _semilinear_map(fld, matrix_cols, offset, j):
    return _twisted_map(fld, matrix_cols, offset, [j] * len(matrix_cols))


def _frobenius_degree(fld):
    degree = 1
    while fld.characteristic**degree < fld.size:
        degree += 1
    return degree


def test_line_counts():
    assert len(enumerate_affine_lines(PrimeField(5), 2)) == 30
    assert len(enumerate_affine_lines(GF4, 2)) == 20
    assert len(enumerate_affine_lines(PrimeField(3), 1)) == 1
    # q^(d-1) * (q^d - 1)/(q - 1) in general
    assert len(enumerate_affine_lines(PrimeField(3), 3)) == 9 * 13


def test_lines_are_canonical_and_cover_all_pairs():
    F3 = PrimeField(3)
    lines = enumerate_affine_lines(F3, 2)
    seen_sets = set()
    for line in lines:
        pts = frozenset(
            tuple((b + r * d) for b, d in zip(line.base, line.dir))
            for r in F3.elements()
        )
        assert pts not in seen_sets
        seen_sets.add(pts)
    # every pair of distinct points lies on exactly one enumerated line
    points = list(product(F3.elements(), repeat=2))
    for a in points:
        for b in points:
            if a == b:
                continue
            assert sum(1 for s in seen_sets if a in s and b in s) == 1


def test_line_order_matches_reference():
    for fld in (PrimeField(3), GF4, PrimeField(5), PrimeField(7), GF8, GF9):
        for dim in (1, 2, 3):
            expected = [line for line, _ in affine_lines_reference(fld, dim)]
            assert enumerate_affine_lines(fld, dim) == expected


def test_line_indices_are_the_point_indices_of_the_line():
    # the walk sums weighted coordinate rows; each sum must be the
    # point_index of base + r * direction, r in code order
    spaces = ((PrimeField(3), 4), (GF4, 3), (PrimeField(5), 3), (GF9, 2), (PrimeField(7), 1))
    for fld, dim in spaces:
        q, count = fld.size, 0
        for base, direction, indices in _lines_with_points(fld, dim):
            points = vector_line(fld, base, direction)
            assert list(indices) == [point_index(q, point) for point in points]
            count += 1
        assert count == q ** (dim - 1) * (q**dim - 1) // (q - 1)


def test_the_line_of_a_large_prime_field_is_enumerated_without_its_points():
    # the walk builds no row at the lead and lists no points, so the one line
    # of F_p is named at once however large p is under the cap
    F = PrimeField(1_000_003)
    start = time.perf_counter()
    assert enumerate_affine_lines(F, 1) == [Line((F.zero,), (F.one,))]
    assert time.perf_counter() - start < 0.25
    (_, _, indices), = _lines_with_points(F, 1)
    assert all(i == r for i, r in zip(indices, range(F.size), strict=True))


def test_scan_stops_at_the_first_violating_line():
    # a map F_5^4 -> F_5 never decomposes (e < d), so the line scan runs; a
    # constant map violates on the first of the 19,500 lines, and the scan
    # must not build the others first
    F5 = PrimeField(5)
    f = VectorMapTable.from_codes(F5, 4, 1, [(0,)] * 5**4)
    start = time.perf_counter()
    verdict = check_hypotheses(f)
    elapsed = time.perf_counter() - start
    assert not verdict.ok
    assert verdict.line == Line((F5.zero,) * 4, (F5.zero,) * 3 + (F5.one,))
    assert elapsed < 0.25, f"first-line violation took {elapsed:.2f} s"


def test_check_hypotheses_affine_map():
    F5 = PrimeField(5)
    cols = ((F5.elem(1), F5.elem(3)), (F5.elem(2), F5.elem(4)))  # det = -2 != 0
    f = _table(F5, 2, 2, _semilinear_map(F5, cols, (F5.one, F5.one), 0))
    assert check_hypotheses(f).ok


def test_check_hypotheses_constant_map_fails_on_line_image():
    F5 = PrimeField(5)
    f = _table(F5, 2, 2, lambda v: (F5.zero, F5.zero))
    verdict = check_hypotheses(f)
    assert not verdict.ok
    assert verdict.line == enumerate_affine_lines(F5, 2)[0]


def test_separation_follows_from_line_images():
    # check_hypotheses scans line images only: on every map it accepts, the
    # separation hypothesis must hold by its definition, and f is injective
    rng = random.Random(4477)

    def rand_vec(fld, e):
        return tuple(fld.element_from_encoding(rng.randrange(fld.size)) for _ in range(e))

    verdicts = []
    for fld, degree in ((PrimeField(3), 1), (PrimeField(5), 1), (GF4, 2)):
        for e in (2, 3):
            for _ in range(6):
                cols = (rand_vec(fld, e), rand_vec(fld, e))
                semilinear = _table(
                    fld, 2, e, _semilinear_map(fld, cols, rand_vec(fld, e), rng.randrange(degree))
                )
                perturbed = dict(semilinear.mapping)
                perturbed[rng.choice(list(perturbed))] = rand_vec(fld, e)
                maps = [
                    semilinear,
                    VectorMapTable(fld, 2, e, perturbed),
                    _table(fld, 2, e, lambda v: rand_vec(fld, e)),
                ]
                for f in maps:
                    ok = check_hypotheses(f).ok
                    verdicts.append(ok)
                    if ok:
                        assert separation_failure(f) is None
                        assert len(set(f.mapping.values())) == len(f.mapping)
    assert True in verdicts and False in verdicts


def _rand_vec(fld, e, rng):
    return tuple(fld.element_from_encoding(rng.randrange(fld.size)) for _ in range(e))


def test_decomposition_verdict_matches_line_scan():
    # the verdict comes from the semilinear decomposition, and from a scan on
    # codes when there is none: the scan-only RingElem walk must give the
    # same verdict and the same first line.  Over the larger fields d = 3 is
    # left out for time: there the reference walks up to 7,371 lines per map.
    # F_11, F_13 and GF(27) lie beyond the former |F| <= 9 cap.
    rng = random.Random(6061)
    maps = [_table(GF4, 2, 2, lambda v: (v[0], v[1] * v[1]))]
    fields = (PrimeField(3), GF4, PrimeField(5), PrimeField(7), GF8, GF9,
              PrimeField(11), PrimeField(13), GaloisField(3, 3, [1, 2, 0]))
    drawn = set()  # (q, Frobenius power) of the semilinear maps
    for fld in fields:
        degree = _frobenius_degree(fld)
        for d, e in [(2, 1), (2, 2), (2, 3)] + ([(3, 2)] if fld.size <= 5 else []):
            for _ in range(2):
                while True:
                    cols = tuple(_rand_vec(fld, e, rng) for _ in range(d))
                    offset = _rand_vec(fld, e, rng)
                    power = rng.randrange(degree)
                    func = _semilinear_map(fld, cols, offset, power)
                    semilinear = _table(fld, d, e, func)
                    if e < d or len(set(semilinear.mapping.values())) == fld.size**d:
                        break
                drawn.add((fld.size, power))
                perturbed = semilinear.mapping
                point = rng.choice(list(perturbed))
                while perturbed[point] == semilinear.value(point):
                    perturbed[point] = _rand_vec(fld, e, rng)
                scale = rng.choice(fld.elements())
                dependent = cols[:-1] + (tuple(scale * c for c in cols[0]),)
                maps += [
                    semilinear,
                    VectorMapTable(fld, d, e, perturbed),
                    _table(fld, d, e, lambda v: offset),
                    _table(fld, d, e, _semilinear_map(fld, dependent, offset, 0)),
                ]
                if degree > 1:
                    powers = [rng.randrange(degree)] * d
                    powers[rng.randrange(1, d)] = (powers[0] + 1) % degree
                    maps.append(_table(fld, d, e, _twisted_map(fld, cols, offset, powers)))
    outcomes = set()
    for f in maps:
        verdict = check_hypotheses(f)
        assert verdict == check_hypotheses_reference(f)
        outcomes.add((verdict.ok, (f.dim_in, f.dim_out)))
        if verdict.ok:
            cert = recover_semilinear(f)
            assert all(cert.apply(v) == f.value(v) for v in f.mapping)
        else:
            with pytest.raises(PreconditionError):
                recover_semilinear(f)
    # (x, y) -> (x, y^2) over GF(4) twists the axes by different automorphisms
    assert not check_hypotheses(maps[0]).ok
    assert {(True, (2, 2)), (True, (2, 3)), (False, (2, 2)), (False, (3, 2))} <= outcomes
    assert {(27, 0), (27, 1), (27, 2)} <= drawn


def test_check_hypotheses_squaring_over_gf4():
    f = _table(GF4, 2, 2, lambda v: (v[0] * v[0], v[1] * v[1]))
    assert check_hypotheses(f).ok


def test_check_hypotheses_detects_separation_failure():
    # fold the second coordinate through an even function: collisions appear
    F5 = PrimeField(5)

    def fold(v):
        return (v[0], v[1] * v[1])

    verdict = check_hypotheses(_table(F5, 2, 2, fold))
    assert not verdict.ok


def test_table_validation():
    with pytest.raises(PreconditionError):
        _table(PrimeField(2), 2, 2, lambda v: v)  # F_2 rejected
    with pytest.raises(PreconditionError):
        _table(PrimeField(5), 1, 2, lambda v: (v[0], v[0]))  # dim_in >= 2
    # a table is bounded by its input: any field of more than two elements
    # and any codomain dimension
    assert check_hypotheses(_table(PrimeField(5), 2, 4, lambda v: v + v)).ok
    assert check_hypotheses(_table(Zmod(11), 2, 2, lambda v: v)).ok
    with pytest.raises(PreconditionError):
        VectorMapTable(Zmod(6), 2, 2, {})  # not a field
    # the arity is capped as a TableOracle's is, before q^d is formed
    with pytest.raises(PreconditionError, match="domain dimension must be in 2..16, got 10000000"):
        VectorMapTable.from_codes(PrimeField(3), 10**7, 1, [])
    # the line scan alone is capped, by the points its lines hold (lines
    # times q, the work of the scan): F_3^8 has 7,173,360 lines, and is
    # refused before any is built
    constant = VectorMapTable.from_codes(PrimeField(3), 8, 1, [(0,)] * 3**8)
    for call in (lambda: enumerate_affine_lines(PrimeField(3), 8),
                 lambda: check_hypotheses(constant)):
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="^dimension 8 over prime 3 has 7,173,360 "
                           "lines of 3 points, 21,520,080 in all; the line scan is capped "
                           "at 5,591,040 points$"):
            call()
        assert time.perf_counter() - start < 1
    # the cap is the 1,397,760 lines of GF(4)^6, the largest space the old
    # per-table caps let through, times 4 points.  It admits F_2^11 and
    # F_173^2; F_2^12, F_1181^2 (1,395,942 lines of 1,181 points) and the one
    # line of F_p at p > MAX_LINE_POINTS hold too many points
    assert MAX_LINE_POINTS == 4 * 4**5 * (4**6 - 1) // 3
    for fld, dim in ((GF4, 6), (PrimeField(2), 11), (PrimeField(173), 2)):
        assert next(_lines_with_points(fld, dim))[:2] == ((0,) * dim, (0,) * (dim - 1) + (1,))
    for fld, dim, lines in ((PrimeField(2), 12, "8,386,560 lines of 2 points, 16,773,120"),
                            (PrimeField(1181), 2, "1,395,942 lines of 1,181 points, 1,648,607,502"),
                            (PrimeField(5_591_041), 1, "1 lines of 5,591,041 points, 5,591,041")):
        message = (f"^dimension {dim} over {fld.spec_text()} has {lines} in all; "
                   "the line scan is capped at 5,591,040 points$")
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match=message):
            enumerate_affine_lines(fld, dim)
        assert time.perf_counter() - start < 1
    # a key or image outside the spaces is a usage error, never a bare
    # KeyError or AttributeError, nor a verdict about some other map
    F3, F7 = PrimeField(3), PrimeField(7)
    points = list(product(F3.elements(), repeat=2))
    int_key = {(0, 0): points[0]} | {v: v for v in points[1:]}
    with pytest.raises(PreconditionError, match="table key"):
        VectorMapTable(F3, 2, 2, int_key)
    for int_image in (0, (0,)):
        with pytest.raises(PreconditionError, match="table image"):
            VectorMapTable(F3, 2, 1, {v: int_image for v in points})
    with pytest.raises(PreconditionError, match="table image"):
        VectorMapTable(F3, 2, 2, {v: (F7.elem(5), F7.one) for v in points})


def test_recover_affine_over_prime_field():
    F5 = PrimeField(5)
    cols = ((F5.elem(1), F5.elem(3)), (F5.elem(2), F5.elem(4)))
    offset = (F5.one, F5.one)
    f = _table(F5, 2, 2, _semilinear_map(F5, cols, offset, 0))
    cert = recover_semilinear(f)
    assert cert.tau_power == 0
    assert cert.offset == offset
    assert cert.basis_images == cols


def test_recover_squaring_over_gf4():
    f = _table(GF4, 2, 2, lambda v: (v[0] * v[0], v[1] * v[1]))
    cert = recover_semilinear(f)
    assert cert.tau_power == 1
    assert cert.offset == (GF4.zero, GF4.zero)
    assert cert.basis_images == ((GF4.one, GF4.zero), (GF4.zero, GF4.one))


def test_recover_translation():
    F7 = PrimeField(7)
    w = (F7.elem(3), F7.elem(6))
    f = _table(F7, 2, 2, lambda v: (v[0] + w[0], v[1] + w[1]))
    cert = recover_semilinear(f)
    assert cert.tau_power == 0
    assert cert.offset == w
    assert cert.basis_images == ((F7.one, F7.zero), (F7.zero, F7.one))


def test_recover_rejects_bad_hypotheses():
    F5 = PrimeField(5)
    with pytest.raises(PreconditionError):
        recover_semilinear(_table(F5, 2, 2, lambda v: (F5.zero, F5.zero)))
    # the identity moved at the origin: the error names the first line whose
    # image is not a line, the one check_hypotheses names
    origin = (F5.zero, F5.zero)
    perturbed = _table(F5, 2, 2, lambda v: (F5.one, F5.zero) if v == origin else v)
    assert check_hypotheses(perturbed).line == Line(origin, (F5.zero, F5.one))
    message = "line hypotheses fail: line-image line base 0 0 dir 0 1"
    with pytest.raises(PreconditionError) as info:
        recover_semilinear(perturbed)
    assert str(info.value) == message


def test_roundtrip_random_semilinear_maps():
    rng = random.Random(90210)
    fields = [PrimeField(3), GF4, PrimeField(5), PrimeField(7), GF8, GF9]
    for fld in fields:
        degree = _frobenius_degree(fld)
        done = 0
        while done < 100:
            cols = tuple(
                tuple(fld.element_from_encoding(rng.randrange(fld.size)) for _ in range(2))
                for _ in range(2)
            )
            det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
            if det.is_zero:
                continue
            offset = tuple(
                fld.element_from_encoding(rng.randrange(fld.size)) for _ in range(2)
            )
            j = rng.randrange(degree)
            f = _table(fld, 2, 2, _semilinear_map(fld, cols, offset, j))
            assert check_hypotheses(f).ok
            cert = recover_semilinear(f)
            for v in product(fld.elements(), repeat=2):
                assert cert.apply(v) == f.value(v)
            done += 1


def test_every_passing_table_is_injective():
    rng = random.Random(333)
    F3 = PrimeField(3)
    points = list(product(F3.elements(), repeat=2))
    # random invertible linear maps plus a couple of scrambles
    for _ in range(50):
        cols = tuple(
            tuple(F3.element_from_encoding(rng.randrange(3)) for _ in range(2))
            for _ in range(2)
        )
        det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
        if det.is_zero:
            continue
        f = _table(F3, 2, 2, _semilinear_map(F3, cols, (F3.zero, F3.zero), 0))
        if check_hypotheses(f).ok:
            images = {f.value(p) for p in points}
            assert len(images) == len(points)


def test_prime_field_tau_is_always_identity():
    rng = random.Random(2048)
    for p in (3, 5, 7):
        F = PrimeField(p)
        for _ in range(20):
            cols = tuple(
                tuple(F.element_from_encoding(rng.randrange(p)) for _ in range(2))
                for _ in range(2)
            )
            det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
            if det.is_zero:
                continue
            offset = tuple(F.element_from_encoding(rng.randrange(p)) for _ in range(2))
            cert = recover_semilinear(_table(F, 2, 2, _semilinear_map(F, cols, offset, 0)))
            assert cert.tau_power == 0


def test_non_surjective_codomain():
    # injective semilinear map into a strictly bigger space
    F5 = PrimeField(5)
    cols = ((F5.one, F5.zero, F5.elem(2)), (F5.zero, F5.one, F5.elem(3)))
    f = _table(F5, 2, 3, _semilinear_map(F5, cols, (F5.zero,) * 3, 0))
    assert check_hypotheses(f).ok
    cert = recover_semilinear(f)
    assert cert.basis_images == cols
    assert len(cert.offset) == 3


def test_scalar_codomain_fails_naturally():
    # e = 1: a projection cannot carry all lines onto lines injectively
    F3 = PrimeField(3)
    f = _table(F3, 2, 1, lambda v: (v[0],))
    verdict = check_hypotheses(f)
    assert not verdict.ok


def test_decomposition_frobenius_table_matches_rings_frobenius():
    # differential: _decompose builds tau on codes, x -> x^p by the field's
    # mul and each further power by composing it; on the map v -> tau^j(v),
    # built with rings.frobenius, it must find j, for every field GF(p^k)
    # of more than two elements under GF_MAX_SIZE and every j in 0..k-1
    seen = 0
    for p in filter(is_prime, range(GF_MAX_SIZE + 1)):
        for k in range(1, GF_MAX_SIZE.bit_length()):
            if not 2 < p**k <= GF_MAX_SIZE:
                continue
            fld = _first_galois_field(p, k)
            for j in range(k):
                tau = [frobenius(x, j).value for x in fld.elements()]
                codes = [(tau[a], tau[b]) for a, b in product(range(fld.size), repeat=2)]
                cert = _decompose(VectorMapTable.from_codes(fld, 2, 2, codes))
                assert cert is not None and cert.tau_power == j, (fld, j)
                assert cert.basis_images == ((fld.one, fld.zero), (fld.zero, fld.one))
                seen += 1
    # the k = 1 fields F_3..F_79 (21), then GF(4), GF(8), GF(16), GF(32),
    # GF(64), GF(9), GF(27), GF(81), GF(25) and GF(49) at each power
    assert seen == 21 + (2 + 3 + 4 + 5 + 6) + (2 + 3 + 4) + 2 + 2


def _first_galois_field(p, k):
    """GaloisField(p, k, modulus) for the lexicographically first modulus that gives a field."""
    for modulus in product(range(p), repeat=k):
        try:
            return GaloisField(p, k, modulus)
        except PreconditionError:
            continue


def test_decomposition_builds_no_ring_element_before_the_certificate(monkeypatch):
    # tau is found on codes: an injective map over GF(9) that matches
    # tau = frobenius^1 along the first axis, but has two images off it
    # swapped, is refused with no RingElem made
    identity = ((GF9.one, GF9.zero), (GF9.zero, GF9.one))
    codes = _table(GF9, 2, 2, _semilinear_map(GF9, identity, (GF9.zero,) * 2, 1)).codes
    swapped = codes[:-2] + [codes[-1], codes[-2]]
    f = VectorMapTable.from_codes(GF9, 2, 2, swapped)
    made = []
    init = RingElem.__init__

    def counting_init(self, ring, value):
        made.append(value)
        init(self, ring, value)

    monkeypatch.setattr(RingElem, "__init__", counting_init)
    assert _decompose(f) is None
    assert made == []
    assert _decompose(VectorMapTable.from_codes(GF9, 2, 2, codes)).tau_power == 1
    assert made  # the certificate itself is in RingElem


def test_frobenius_composed_with_matrix_is_recovered_over_gf9():
    f = _table(
        GF9,
        2,
        2,
        _semilinear_map(
            GF9,
            ((GF9.elem(2), GF9.one), (GF9.one, GF9.one)),
            (GF9.elem(5), GF9.zero),
            1,
        ),
    )
    cert = recover_semilinear(f)
    assert cert.tau_power == 1
    for v in product(GF9.elements(), repeat=2):
        assert cert.apply(v) == f.value(v)
