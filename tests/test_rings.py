import random
import re
from itertools import chain, product

import pytest

from linaff import (
    GaloisField,
    PreconditionError,
    PrimeField,
    Rationals,
    Zmod,
    frobenius,
    parse_ring_spec,
)
from linaff.rings import PSI_13, _MR_BASES, _field_tables, is_prime, prime_factors

from helpers import characteristic_regular_upto, field_tables_schoolbook, rand_null_codes

GF4 = GaloisField(2, 2, [1, 1])  # x^2 + x + 1
GF8 = GaloisField(2, 3, [1, 1, 0])  # x^3 + x + 1
GF9 = GaloisField(3, 2, [1, 0])  # x^2 + 1
GF27 = GaloisField(3, 3, [1, 2, 0])  # x^3 + 2x + 1
GF81 = GaloisField(3, 4, [2, 0, 0, 2])  # x^4 + 2x^3 + 2, the size cap
GF32 = GaloisField(2, 5, [1, 0, 1, 0, 0])  # x^5 + x^2 + 1
GF64 = GaloisField(2, 6, [1, 1, 0, 0, 0, 0])  # x^6 + x + 1


def test_zmod_arithmetic():
    Z4 = Zmod(4)
    assert (Z4.elem(2) * Z4.elem(2)).value == 0
    assert (Z4.elem(3) + Z4.elem(2)).value == 1
    assert (-Z4.elem(1)).value == 3


def test_gf4_multiplication_reduces_by_modulus():
    t = GF4.elem(2)
    assert (t * t).value == 3  # t^2 = t + 1
    assert (t * GF4.elem(3)).value == 1  # t*(t+1) = t^2 + t = 1


def test_rational_arithmetic():
    Q = Rationals()
    assert Q.parse_element("1/3") + Q.parse_element("1/6") == Q.parse_element("1/2")
    assert Q.format_element(Q.parse_element("-2/4")) == "-1/2"


def test_mixed_ring_operands_rejected():
    with pytest.raises(PreconditionError, match="^mixed rings: zmod 4 vs zmod 5$"):
        Zmod(4).elem(1) + Zmod(5).elem(1)
    with pytest.raises(PreconditionError, match="^mixed rings: zmod 5 vs prime 5$"):
        Zmod(5).elem(1) * PrimeField(5).elem(1)  # distinct specs on purpose


def test_is_regular():
    Z12 = Zmod(12)
    assert Z12.is_regular(Z12.elem(5))
    assert not Z12.is_regular(Z12.elem(4))
    for ring in (Z12, PrimeField(7), GF4, Rationals()):
        assert not ring.is_regular(ring.zero)


def test_zmod_primes():
    # regularity is nonzero residue mod each prime factor
    for m in range(2, 400):
        ring = Zmod(m)
        assert ring.primes == tuple(p for p in range(2, m + 1) if m % p == 0 and is_prime(p))
        for x in ring.elements():
            assert ring.is_regular(x) == all(x.value % p for p in ring.primes)
    assert PrimeField(13).primes == (13,)
    # factors beyond trial division
    assert prime_factors(1000003 * 1000033 * 999983) == (999983, 1000003, 1000033)
    assert prime_factors(2**64 + 1) == (274177, 67280421310721)
    assert prime_factors(3**40 * 1000003**2) == (3, 1000003)


def test_characteristic_regular_upto():
    assert characteristic_regular_upto(Zmod(4), 2) is False
    assert characteristic_regular_upto(PrimeField(5), 4) is True
    assert characteristic_regular_upto(Rationals(), 25) is True
    assert characteristic_regular_upto(Zmod(4), 1) is True


def test_enumeration():
    assert [e.value for e in Zmod(3).elements()] == [0, 1, 2]
    assert [e.value for e in GF4.elements()] == [0, 1, 2, 3]
    assert [e.value for e in PrimeField(2).elements()] == [0, 1]
    with pytest.raises(PreconditionError, match="^rational is not enumerable$"):
        Rationals().elements()


def test_frobenius():
    t = GF4.elem(2)
    assert frobenius(t, 1).value == 3
    assert frobenius(t, 0) == t
    F5 = PrimeField(5)
    assert frobenius(F5.elem(3), 1) == F5.elem(3)
    with pytest.raises(PreconditionError, match="^frobenius needs a finite field, got zmod 4$"):
        frobenius(Zmod(4).elem(1), 1)
    with pytest.raises(PreconditionError, match="^frobenius needs a finite field, got rational$"):
        frobenius(Rationals().one, 1)


def test_frobenius_is_ring_homomorphism():
    for ring in (GF4, GF8, GF9, GF27, GF81):
        for x in ring.elements():
            for y in ring.elements():
                assert frobenius(x + y) == frobenius(x) + frobenius(y)
                assert frobenius(x * y) == frobenius(x) * frobenius(y)


def test_regularity_matches_injectivity_on_finite_rings():
    for ring in (Zmod(4), Zmod(6), Zmod(12), PrimeField(5), GF4, GF9):
        elems = ring.elements()
        for r in elems:
            images = {r * x for x in elems}
            assert ring.is_regular(r) == (len(images) == len(elems))


def test_ring_axioms_randomized():
    rng = random.Random(20231201)
    for ring in (Zmod(12), PrimeField(11), GF8, GF9, GF27, GF32, GF64, GF81, Rationals()):
        for _ in range(500):
            if ring.is_finite:
                a, b, c = (
                    ring.element_from_encoding(rng.randrange(ring.size))
                    for _ in range(3)
                )
            else:
                from fractions import Fraction

                a, b, c = (
                    ring.elem(Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
                    for _ in range(3)
                )
            assert a * b == b * a
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + ring.zero == a
            assert a * ring.one == a
            assert a - a == ring.zero
            # results stay canonical
            for out in (a * b, a + b, a - b, -a):
                if ring.is_finite:
                    assert 0 <= out.value < ring.size
                else:
                    assert out.value.denominator > 0


def test_canonical_form_is_unique():
    Z7 = Zmod(7)
    assert Z7.elem(9).value == 2
    assert Z7.elem(-1).value == 6
    # a Galois-field digit vector (lowest coefficient first) is read as its code
    assert GF4.elem((0, 1)) == GF4.elem(2)
    assert GF81.elem((2, 1, 0, 1)).value == 2 + 1 * 3 + 1 * 27
    with pytest.raises(PreconditionError):
        GF4.elem((1, 0, 0))
    from fractions import Fraction

    Q = Rationals()
    assert Q.parse_element("4/6").value == Q.parse_element("2/3").value
    assert Q.elem(Fraction(3, -6)) == Q.parse_element("-1/2")
    assert Q.elem(Fraction(3, -6)).value.denominator == 2


def test_prime_field_rejects_composite():
    with pytest.raises(PreconditionError):
        PrimeField(9)
    with pytest.raises(PreconditionError):
        PrimeField(1)


def test_prime_field_tests_primality_once(monkeypatch):
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr("linaff.rings.is_prime", counting_is_prime)
    assert PrimeField(8191).is_field
    assert calls == [8191]
    for p in (1, 4, "7"):
        with pytest.raises(PreconditionError) as info:
            PrimeField(p)
        assert str(info.value) == f"{p} is not prime"
    with pytest.raises(PreconditionError) as info:
        PrimeField(PSI_13)
    assert str(info.value) == f"{PSI_13} is too large to certify as prime (limit {PSI_13 - 1})"
    assert calls == [8191, 4, PSI_13]


def test_is_prime_rejects_the_least_strong_pseudoprime_to_the_bases_2_to_37():
    # psi_12 passes the strong test to every prime base up to 37; base 41 exposes it
    psi12 = 318665857834031151167461
    assert not is_prime(psi12)
    assert prime_factors(psi12) == (399165290221, 798330580441)
    assert not Zmod(psi12).is_field
    with pytest.raises(PreconditionError, match="is not prime"):
        PrimeField(psi12)


def test_is_prime_matches_a_sieve_below_a_million():
    limit = 10**6
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    assert [n for n in range(limit) if is_prime(n) != sieve[n]] == []


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


# psi_k, the least strong pseudoprime to the first k prime bases (OEIS A014233)
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
    318665857834031151167461, 3317044064679887385961981,
)


def test_is_prime_rejects_every_psi_k_and_refuses_psi_13():
    # psi_k is composite yet a strong probable prime to the first k bases
    assert _PSI[-1] == PSI_13
    for k, psi in enumerate(_PSI, start=1):
        assert all(_strong_probable_prime(psi, a) for a in _MR_BASES[:k]), k
        if psi < PSI_13:
            assert not is_prime(psi) and len(prime_factors(psi)) > 1, k
    # below psi_13 primes are still certified
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1) and is_prime(2**31 - 1)
    # from psi_13 on only the answer "prime" is uncertain: is_prime refuses
    # psi_13 and the prime 2^89 - 1, and so does every caller that meets one
    too_large = "is too large to certify as prime"
    for call, n in [(is_prime, PSI_13), (is_prime, 2**89 - 1), (prime_factors, 5 * PSI_13),
                    (PrimeField, PSI_13), (PrimeField, 2**89 - 1)]:
        with pytest.raises(PreconditionError, match=too_large):
            call(n)
    with pytest.raises(PreconditionError, match=too_large):
        parse_ring_spec(f"prime {PSI_13}")
    with pytest.raises(PreconditionError, match=too_large):
        parse_ring_spec(f"zmod {5 * PSI_13}").primes
    # a composite verdict is a proof at any size: these rings still parse
    assert not is_prime(PSI_13 + 2) and not is_prime(2**89 + 1)
    for m, primes in [(2**90, (2,)), (10**30, (2, 5)), (5 * PSI_13, None)]:
        ring = parse_ring_spec(f"zmod {m}")
        assert ring.m == m and not ring.is_field
        if primes:
            assert ring.primes == primes


def test_ring_contract_over_all_four_kinds():
    # identity is the spec text: zmod 7 is not prime 7, and a GF modulus is
    # read mod p, so [3, 1] over F_2 is GF4's [1, 1]
    Z12 = Zmod(12)
    rings = [Zmod(7), PrimeField(7), Z12, Zmod(12), GF4, GaloisField(2, 2, [3, 1]), GF9,
             Rationals(), Rationals()]
    for a in rings:
        for b in rings:
            assert (a == b) == (a.spec_text() == b.spec_text())
            if a == b:
                assert hash(a) == hash(b)
    assert Zmod(7) != PrimeField(7) and GaloisField(2, 2, [3, 1]) == GF4
    # elem passes an element of the ring through and rejects one of another ring
    for ring in rings:
        x = ring.from_int(2)
        assert ring.elem(x) is x
        for other in rings:
            if other != ring:
                message = f"^{re.escape(repr(other.one))} is not in {ring.spec_text()}$"
                with pytest.raises(PreconditionError, match=message):
                    ring.elem(other.one)
    # raw input is coerced
    assert Z12.elem(-5).value == 7 and PrimeField(7).elem(-5).value == 2
    assert GF9.elem(5).value == 5 and GF9.elem([2, 1]).value == 5 and GF9.elem([5, -2]).value == 5
    with pytest.raises(PreconditionError):
        GF9.elem(9)
    with pytest.raises(PreconditionError):
        GF9.elem([1])
    Q = Rationals()
    assert Q.elem("-3/6") == Q.parse_element("-1/2")
    # from_int is the image of n under Z -> ring: for GF(p^k) the constant n mod p
    big = 10**30 + 7
    for ring in rings:
        for n in range(-13, 14):
            total = ring.zero
            for _ in range(abs(n)):
                total = total + ring.one
            assert ring.from_int(n) == (total if n >= 0 else -total)
        if ring.is_finite:
            assert ring.from_int(big).value == big % ring.characteristic
            assert ring.from_int(-big).value == -big % ring.characteristic
    assert GF9.from_int(-1).value == 2 and GF4.from_int(big).value == 1
    assert Q.from_int(-big).value == -big
    # is_regular: zero never, a unit always, a zero divisor of Z/12 not
    for ring in rings:
        assert not ring.is_regular(ring.zero)
        assert ring.is_regular(ring.one) and ring.is_regular(-ring.one)
    for ring in (PrimeField(7), GF4, GF9, Q):
        assert ring.is_regular(ring.elem(2)) and ring.is_regular(ring.elem(3))
    assert Z12.is_regular(Z12.elem(5)) and Z12.is_regular(Z12.elem(7))
    assert not any(Z12.is_regular(Z12.elem(v)) for v in (2, 3, 4, 6, 8, 9, 10))


@pytest.mark.parametrize(
    "ring", [Zmod(4), Zmod(12), PrimeField(7), GF4, GF8, GF9], ids=lambda r: r.spec_text()
)
def test_lines_are_the_slabs_of_line(ring):
    # slab r of lines(g, h) holds g[i] + h[i]*r for every i, as line(g[i], h[i])[r]
    rng = random.Random(f"lines {ring.spec_text()}")
    for length in (0, 1, 2, 5, 17, 40):
        g = [rng.randrange(ring.size) for _ in range(length)]
        h = [rng.randrange(ring.size) for _ in range(length)]
        assert ring.lines(g, h) == list(chain.from_iterable(zip(*map(ring.line, g, h))))


def test_zmod_rejects_small_modulus():
    with pytest.raises(PreconditionError):
        Zmod(1)


def test_galois_field_validation():
    with pytest.raises(PreconditionError):
        GaloisField(2, 2, [0, 1])  # x^2 + x = x(x+1)
    with pytest.raises(PreconditionError):
        GaloisField(2, 2, [1, 0])  # x^2 + 1 = (x+1)^2
    with pytest.raises(PreconditionError):
        GaloisField(2, 4, [1, 0, 1, 0])  # x^4+x^2+1 = (x^2+x+1)^2, no roots yet reducible
    with pytest.raises(PreconditionError):
        GaloisField(5, 3, [2, 0, 0])  # 125 > size cap
    # the degree is bounded by the modulus given, before p^k is formed
    with pytest.raises(PreconditionError, match="modulus needs exactly 10000000 coefficients"):
        GaloisField(2, 10**7, [1])
    GaloisField(2, 4, [1, 1, 0, 0])  # x^4 + x + 1 is irreducible
    GaloisField(2, 4, [1, 1, 1, 1])  # x^4+x^3+x^2+x+1 is the degree-4 cyclotomic factor


def test_field_tables_match_schoolbook_products():
    # the tables come from the powers of a primitive element; every sum and
    # product formed as polynomials must agree.  GF(16) by the cyclotomic
    # modulus is a field whose t is not primitive (t^5 = 1).
    specs = [(2, 2, (1, 1)), (2, 3, (1, 1, 0)), (3, 2, (1, 0)), (3, 3, (1, 2, 0)),
             (3, 4, (2, 0, 0, 2)), (2, 4, (1, 1, 0, 0)), (2, 4, (1, 1, 1, 1))]
    for p, k, modulus in specs:
        GaloisField(p, k, modulus)
        assert tuple(_field_tables(p, k, modulus)) == field_tables_schoolbook(p, k, modulus)


def test_galois_field_accepts_exactly_the_moduli_that_give_a_field():
    # differential: F_p[t]/(modulus) is a field iff every nonzero element has
    # an inverse in the schoolbook mul table; all 155 monic moduli with
    # p^k <= 49, and every (p, k) with k >= 2 has both outcomes
    outcomes = {}
    for p, k in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                 (5, 1), (5, 2), (7, 1), (7, 2)]:
        for modulus in product(range(p), repeat=k):
            mul = field_tables_schoolbook(p, k, modulus)[1]
            is_field = all(1 in row for row in mul[1:])
            if is_field:
                GaloisField(p, k, modulus)
            else:
                with pytest.raises(PreconditionError, match=f"is reducible over F_{p}$"):
                    GaloisField(p, k, modulus)
            outcomes.setdefault((p, k), set()).add(is_field)
    assert sum(p**k for p, k in outcomes) == 155
    assert all(seen == {True, False} for (p, k), seen in outcomes.items() if k >= 2)


def test_inverse_on_fields():
    for ring in (PrimeField(7), GF4, GF8, GF9):
        for x in ring.elements():
            if x.is_zero:
                with pytest.raises(PreconditionError):
                    ring.inverse(x)
            else:
                assert x * ring.inverse(x) == ring.one
    Q = Rationals()
    assert Q.inverse(Q.parse_element("-3/7")) == Q.parse_element("-7/3")


def test_pow():
    F7 = PrimeField(7)
    assert F7.elem(3) ** 6 == F7.one
    assert F7.elem(3) ** 0 == F7.one
    with pytest.raises(PreconditionError):
        F7.elem(3) ** -1


def test_ring_spec_roundtrip():
    specs = ["zmod 6", "prime 7", "gf 2 2 1 1", "gf 3 2 1 0", "rational"]
    for text in specs:
        ring = parse_ring_spec(text)
        assert ring.spec_text() == text
        assert parse_ring_spec(ring.spec_text()) == ring
    with pytest.raises(PreconditionError):
        parse_ring_spec("zmod")
    with pytest.raises(PreconditionError):
        parse_ring_spec("octonions 8")


def test_element_parse_format_roundtrip():
    for ring in (Zmod(9), GF9):
        for e in ring.elements():
            assert ring.parse_element(ring.format_element(e)) == e
    Q = Rationals()
    for text in ("0", "5", "-5", "2/3", "-11/4"):
        assert Q.format_element(Q.parse_element(text)) == text


NULL_TEST_RINGS = [Zmod(m) for m in (2, 4, 6, 8, 9, 12, 15, 16, 30)] + [
    PrimeField(p) for p in (2, 3, 5, 7)
] + [GF4, GF8, GF9]


def _zero_everywhere(ring, coeffs) -> bool:
    """Evaluate sum_k coeffs[k] r^k at every element, power by power."""
    terms = [ring.element_from_encoding(c) for c in coeffs]
    for r in ring.elements():
        acc, power = ring.zero, ring.one
        for c in terms:
            acc = acc + c * power
            power = power * r
        if not acc.is_zero:
            return False
    return True


@pytest.mark.parametrize("ring", NULL_TEST_RINGS, ids=lambda ring: ring.spec_text())
def test_is_null_matches_evaluation_at_every_element(ring):
    # lengths up to 17 reach degree p and q - 1 in every ring listed
    rng = random.Random(ring.spec_text())
    outcomes = set()
    for length in range(1, 18):
        for _ in range(8):
            if rng.random() < 0.5:
                coeffs = rand_null_codes(ring, length, rng)
            else:
                coeffs = [rng.randrange(ring.size) for _ in range(length)]
            null = ring.is_null(coeffs)
            assert null == _zero_everywhere(ring, coeffs), (ring, coeffs)
            outcomes.add((null, any(coeffs)))
    assert {(True, True), (False, True)} <= outcomes  # a nonzero null one, and a non-null one


def test_is_null_pins():
    # the residuals of 3r^2 on Z/6 and 2r^2 on Z/4: each equals its linear
    # part at every element, so the line is affine though b_2 != 0
    assert Zmod(6).is_null([0, 3, 3]) and not Zmod(6).is_null([0, 0, 3])
    assert Zmod(4).is_null([0, 2, 2]) and not Zmod(4).is_null([0, 0, 2])
    assert PrimeField(3).is_null([0, 2, 0, 1])  # r^3 - r
    assert GF4.is_null([0, 1, 0, 0, 1])  # r^4 - r (= r^4 + r)
    assert not GF4.is_null([0, 1, 0, 1])
    Q = Rationals()
    assert Q.is_null([Q.zero.value] * 4)
    assert not Q.is_null([0, -1, 1])
