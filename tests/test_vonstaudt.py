import random
import time
from itertools import product

import pytest

from linaff import (
    DomainTooLargeError,
    GaloisField,
    PreconditionError,
    PrimeField,
    VectorMapTable,
    Zmod,
    check_hypotheses,
    enumerate_affine_lines,
    recover_semilinear,
)

from linaff.multiaffine import Line

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
    rng = random.Random(6061)
    maps = [_table(GF4, 2, 2, lambda v: (v[0], v[1] * v[1]))]
    for fld in (PrimeField(3), GF4, PrimeField(5), PrimeField(7), GF8, GF9):
        degree = _frobenius_degree(fld)
        for d, e in [(2, 1), (2, 2), (2, 3)] + ([(3, 2)] if fld.size <= 5 else []):
            for _ in range(2):
                while True:
                    cols = tuple(_rand_vec(fld, e, rng) for _ in range(d))
                    offset = _rand_vec(fld, e, rng)
                    func = _semilinear_map(fld, cols, offset, rng.randrange(degree))
                    semilinear = _table(fld, d, e, func)
                    if e < d or len(set(semilinear.mapping.values())) == fld.size**d:
                        break
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
    with pytest.raises(DomainTooLargeError):
        _table(PrimeField(5), 2, 4, lambda v: v + v)  # d*e cap
    with pytest.raises(DomainTooLargeError):
        VectorMapTable(Zmod(11), 2, 2, {})
    with pytest.raises(PreconditionError):
        VectorMapTable(Zmod(6), 2, 2, {})  # not a field
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
