import random
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
    identify_automorphism,
    recover_semilinear,
)

from helpers import separation_failure

GF4 = GaloisField(2, 2, [1, 1])
GF8 = GaloisField(2, 3, [1, 1, 0])
GF9 = GaloisField(3, 2, [1, 0])


def _table(fld, dim_in, dim_out, func) -> VectorMapTable:
    mapping = {v: func(v) for v in product(fld.elements(), repeat=dim_in)}
    return VectorMapTable(fld, dim_in, dim_out, mapping)


def _semilinear_map(fld, matrix_cols, offset, j):
    p = fld.characteristic

    def func(v):
        image = offset
        for coord, col in zip(v, matrix_cols):
            scaled = tuple((coord ** (p**j)) * c for c in col)
            image = tuple(a + b for a, b in zip(image, scaled))
        return image

    return func


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


def test_identify_automorphism_examples():
    sq = {x: x * x for x in GF4.elements()}
    assert identify_automorphism(sq).frobenius_power == 1

    F7 = PrimeField(7)
    ident = {x: x for x in F7.elements()}
    assert identify_automorphism(ident).frobenius_power == 0

    F5 = PrimeField(5)
    cube = {x: x**3 for x in F5.elements()}
    out = identify_automorphism(cube)
    assert not out.ok
    assert out.failed_law == "additivity"
    assert out.witness == (F5.one, F5.one)


def test_identify_automorphism_rejects_non_bijections():
    F5 = PrimeField(5)
    squash = {x: x * x for x in F5.elements()}  # 2^2 = 3^2 mod 5
    out = identify_automorphism(squash)
    assert not out.ok
    assert out.failed_law == "bijectivity"


def test_roundtrip_random_semilinear_maps():
    rng = random.Random(90210)
    fields = [PrimeField(3), GF4, PrimeField(5), PrimeField(7), GF8, GF9]
    for fld in fields:
        degree = 1
        while fld.characteristic**degree < fld.size:
            degree += 1
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
    assert cert.dim_out == 3


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
