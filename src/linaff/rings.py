"""Exact arithmetic for the coefficient rings of the recovery pipeline.

Four ring families are supported: the integers mod m, prime fields,
small Galois fields F_{p^k} in a polynomial basis, and arbitrary-precision
rationals.  Every element is kept in a unique canonical form (reduced
residue, digit vector, or reduced fraction) and all operations are exact;
there is no floating point anywhere in the package.

The regularity predicate follows the non-zerodivisor convention in which
0 is never regular, so cancelling a regular factor is always legitimate.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import (
    NotEnumerableError,
    PreconditionError,
    RingMismatchError,
    UnsupportedRingError,
)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Desk-scale caps for Galois fields: keeps irreducibility checking trivial.
GF_MAX_DEGREE = 4
GF_MAX_SIZE = 81


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every input below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(m: int) -> tuple[int, ...]:
    """Distinct prime factors of m >= 1, ascending (trial division, then Pollard rho)."""
    found = set()
    for p in range(2, 1000):
        if p * p > m:
            break
        if m % p == 0:
            found.add(p)
            while m % p == 0:
                m //= p
    rest = [m]
    while rest:
        n = rest.pop()
        if n == 1:
            continue
        if is_prime(n):
            found.add(n)
            continue
        x = y = 2
        c = d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
            if d == n:  # cycle closed without a split: restart with a new constant
                x = y = 2
                c += 1
                d = 1
        rest += [d, n // d]
    return tuple(sorted(found))


class RingElem:
    """An element of a specific ring, always in canonical form.

    Arithmetic goes through the usual operators; mixing elements of
    different rings raises RingMismatchError.
    """

    __slots__ = ("ring", "value")

    def __init__(self, ring: "Ring", value):
        self.ring = ring
        self.value = value

    def _other(self, other) -> "RingElem":
        if not isinstance(other, RingElem):
            raise RingMismatchError(f"cannot combine {self!r} with {other!r}")
        if other.ring != self.ring:
            raise RingMismatchError(
                f"mixed rings: {self.ring.spec_text()} vs {other.ring.spec_text()}"
            )
        return other

    def __add__(self, other):
        other = self._other(other)
        return RingElem(self.ring, self.ring._add(self.value, other.value))

    def __sub__(self, other):
        other = self._other(other)
        return RingElem(self.ring, self.ring._sub(self.value, other.value))

    def __mul__(self, other):
        other = self._other(other)
        return RingElem(self.ring, self.ring._mul(self.value, other.value))

    def __neg__(self):
        return RingElem(self.ring, self.ring._neg(self.value))

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise PreconditionError("exponent must be a nonnegative integer")
        result = self.ring.one
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, RingElem)
            and self.ring == other.ring
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.ring, self.value))

    def __repr__(self):
        return f"{self.ring.format_element(self)}@{self.ring.spec_text()}"

    @property
    def is_zero(self) -> bool:
        return self.value == self.ring.zero.value


class Ring:
    """Common interface of the four supported coefficient rings."""

    kind = "?"
    is_field = False
    is_finite = False
    size: int | None = None
    characteristic: int = 0

    def elem(self, raw) -> RingElem:
        raise NotImplementedError

    def from_int(self, n: int) -> RingElem:
        """Image of the integer n under the unique map Z -> ring."""
        raise NotImplementedError

    @property
    def zero(self) -> RingElem:
        return self._zero

    @property
    def one(self) -> RingElem:
        return self._one

    def _add(self, a, b):
        raise NotImplementedError

    def _sub(self, a, b):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def is_regular(self, x: RingElem) -> bool:
        """True iff multiplication by x is injective; 0 is never regular."""
        raise NotImplementedError

    def inverse(self, x: RingElem) -> RingElem:
        raise NotImplementedError

    def elements(self) -> list[RingElem]:
        """All elements of a finite ring in ascending encoding order."""
        raise NotEnumerableError(f"{self.spec_text()} is not enumerable")

    def encode(self, x: RingElem):
        raise NotImplementedError

    def element_from_encoding(self, code) -> RingElem:
        raise NotImplementedError

    def parse_element(self, text: str) -> RingElem:
        """Element from its file text, the integer encoding for finite rings."""
        try:
            code = int(text)
        except ValueError as exc:
            raise PreconditionError(str(exc)) from None
        return self.element_from_encoding(code)

    def format_element(self, x: RingElem) -> str:
        raise NotImplementedError

    def spec_text(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.spec_text()

    def _identity(self):
        raise NotImplementedError

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Ring) and self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())


class Zmod(Ring):
    """The ring Z/mZ of integers modulo m >= 2, residues in [0, m).

    `primes` holds the distinct prime factors of m, ascending: an element
    is regular iff it is nonzero modulo each of them.
    """

    kind = "zmod"

    def __init__(self, m: int):
        if not isinstance(m, int) or m < 2:
            raise PreconditionError(f"modulus must be an integer >= 2, got {m}")
        self.m = m
        self.is_finite = True
        self.size = m
        self.characteristic = m
        self.is_field = is_prime(m)
        self._zero = RingElem(self, 0)
        self._one = RingElem(self, 1)

    @functools.cached_property
    def primes(self) -> tuple[int, ...]:
        return prime_factors(self.m)

    def _identity(self):
        return (self.kind, self.m)

    def elem(self, raw) -> RingElem:
        if isinstance(raw, RingElem):
            if raw.ring != self:
                raise RingMismatchError(f"{raw!r} is not in {self.spec_text()}")
            return raw
        return RingElem(self, int(raw) % self.m)

    def from_int(self, n: int) -> RingElem:
        return RingElem(self, n % self.m)

    def _add(self, a, b):
        return (a + b) % self.m

    def _sub(self, a, b):
        return (a - b) % self.m

    def _mul(self, a, b):
        return (a * b) % self.m

    def _neg(self, a):
        return (-a) % self.m

    def is_regular(self, x: RingElem) -> bool:
        return math.gcd(x.value, self.m) == 1

    def inverse(self, x: RingElem) -> RingElem:
        if math.gcd(x.value, self.m) != 1:
            raise PreconditionError(f"{x!r} is not invertible")
        return RingElem(self, pow(x.value, -1, self.m))

    def elements(self) -> list[RingElem]:
        return [RingElem(self, i) for i in range(self.m)]

    def encode(self, x: RingElem) -> int:
        return x.value

    def element_from_encoding(self, code) -> RingElem:
        code = int(code)
        if not 0 <= code < self.m:
            raise PreconditionError(f"encoding {code} out of range for {self.spec_text()}")
        return RingElem(self, code)

    def format_element(self, x: RingElem) -> str:
        return str(x.value)

    def spec_text(self) -> str:
        return f"zmod {self.m}"


class PrimeField(Zmod):
    """The field F_p = Z/pZ for a (deterministically verified) prime p."""

    kind = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        super().__init__(p)
        self.p = p
        self.is_field = True

    def inverse(self, x: RingElem) -> RingElem:
        if x.value == 0:
            raise PreconditionError("0 is not invertible")
        return RingElem(self, pow(x.value, self.p - 2, self.p))

    def spec_text(self) -> str:
        return f"prime {self.p}"


class GaloisField(Ring):
    """F_{p^k} as F_p[t]/(modulus); elements are digit vectors of length k.

    The modulus is monic of degree k with the low-to-high coefficient list
    supplied by the caller; irreducibility is verified exhaustively.  Only
    desk-scale fields are accepted (k <= 4 and p^k <= 81).  An integer
    passed to elem() is read as the base-p digit encoding sum(d_i * p^i),
    which is also the enumeration and file format.
    """

    kind = "gf"

    def __init__(self, p: int, k: int, modulus):
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        if not 1 <= k <= GF_MAX_DEGREE:
            raise PreconditionError(f"extension degree must be in 1..{GF_MAX_DEGREE}, got {k}")
        if p**k > GF_MAX_SIZE:
            raise PreconditionError(f"field size {p}^{k} exceeds the cap {GF_MAX_SIZE}")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k:
            raise PreconditionError(f"modulus needs exactly {k} coefficients")
        self.p = p
        self.k = k
        self.modulus = modulus
        self.is_finite = True
        self.is_field = True
        self.size = p**k
        self.characteristic = p
        if not self._irreducible():
            raise PreconditionError(
                f"x^{k} + {list(modulus)[::-1]}... is reducible over F_{p}"
            )
        self._zero = RingElem(self, (0,) * k)
        self._one = RingElem(self, (1,) + (0,) * (k - 1))

    def _identity(self):
        return (self.kind, self.p, self.k, self.modulus)

    def _irreducible(self) -> bool:
        # roots catch all degree-1 factors; for k = 4, also try every
        # monic quadratic divisor (a quartic splits as 1+3, 2+2 or 1+1+2).
        if self.k == 1:
            return True
        for r in range(self.p):
            acc = 0
            for c in reversed(self._full_modulus()):
                acc = (acc * r + c) % self.p
            if acc == 0:
                return False
        if self.k == 4:
            for c0 in range(self.p):
                for c1 in range(self.p):
                    if self._divisible_by_quadratic(c0, c1):
                        return False
        return True

    def _full_modulus(self):
        return list(self.modulus) + [1]

    def _divisible_by_quadratic(self, c0, c1) -> bool:
        # long division of the monic modulus by x^2 + c1 x + c0 over F_p
        rem = self._full_modulus()
        for i in range(len(rem) - 1, 1, -1):
            coef = rem[i]
            if coef:
                rem[i] = 0
                rem[i - 1] = (rem[i - 1] - coef * c1) % self.p
                rem[i - 2] = (rem[i - 2] - coef * c0) % self.p
        return rem[0] == 0 and rem[1] == 0

    def elem(self, raw) -> RingElem:
        if isinstance(raw, RingElem):
            if raw.ring != self:
                raise RingMismatchError(f"{raw!r} is not in {self.spec_text()}")
            return raw
        if isinstance(raw, int):
            return self.element_from_encoding(raw)
        digits = tuple(int(c) % self.p for c in raw)
        if len(digits) != self.k:
            raise PreconditionError(f"digit vector must have length {self.k}")
        return RingElem(self, digits)

    def from_int(self, n: int) -> RingElem:
        return RingElem(self, (n % self.p,) + (0,) * (self.k - 1))

    def _add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def _neg(self, a):
        return tuple((-x) % self.p for x in a)

    def _mul(self, a, b):
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the monic modulus: t^k = -(c_{k-1} t^{k-1} + ... + c_0)
        for i in range(len(prod) - 1, self.k - 1, -1):
            coef = prod[i]
            if coef:
                prod[i] = 0
                for j, c in enumerate(self.modulus):
                    prod[i - self.k + j] = (prod[i - self.k + j] - coef * c) % self.p
        return tuple(prod[: self.k])

    def is_regular(self, x: RingElem) -> bool:
        return any(x.value)

    def inverse(self, x: RingElem) -> RingElem:
        if not any(x.value):
            raise PreconditionError("0 is not invertible")
        return x ** (self.size - 2)

    def elements(self) -> list[RingElem]:
        return [self.element_from_encoding(i) for i in range(self.size)]

    def encode(self, x: RingElem) -> int:
        code = 0
        for d in reversed(x.value):
            code = code * self.p + d
        return code

    def element_from_encoding(self, code) -> RingElem:
        code = int(code)
        if not 0 <= code < self.size:
            raise PreconditionError(f"encoding {code} out of range for {self.spec_text()}")
        digits = []
        for _ in range(self.k):
            digits.append(code % self.p)
            code //= self.p
        return RingElem(self, tuple(digits))

    def format_element(self, x: RingElem) -> str:
        return str(self.encode(x))

    def spec_text(self) -> str:
        return f"gf {self.p} {self.k} " + " ".join(str(c) for c in self.modulus)


class Rationals(Ring):
    """The field Q with fully reduced arbitrary-precision fractions."""

    kind = "rational"
    is_field = True
    is_finite = False
    size = None
    characteristic = 0

    def __init__(self):
        self._zero = RingElem(self, Fraction(0))
        self._one = RingElem(self, Fraction(1))

    def _identity(self):
        return (self.kind,)

    def elem(self, raw) -> RingElem:
        if isinstance(raw, RingElem):
            if raw.ring != self:
                raise RingMismatchError(f"{raw!r} is not in {self.spec_text()}")
            return raw
        return RingElem(self, Fraction(raw))

    def from_int(self, n: int) -> RingElem:
        return RingElem(self, Fraction(n))

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def is_regular(self, x: RingElem) -> bool:
        return x.value != 0

    def inverse(self, x: RingElem) -> RingElem:
        if x.value == 0:
            raise PreconditionError("0 is not invertible")
        return RingElem(self, 1 / x.value)

    def encode(self, x: RingElem) -> Fraction:
        return x.value

    def parse_element(self, text: str) -> RingElem:
        try:
            return RingElem(self, Fraction(text))
        except ValueError as exc:
            raise PreconditionError(str(exc)) from None
        except ZeroDivisionError:
            raise PreconditionError(f"zero denominator in {text!r}") from None

    def format_element(self, x: RingElem) -> str:
        v = x.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

    def spec_text(self) -> str:
        return "rational"


def is_regular(x: RingElem) -> bool:
    """Non-zerodivisor test for a ring element (0 is never regular)."""
    return x.ring.is_regular(x)


def characteristic_regular_upto(ring: Ring, n: int) -> bool:
    """True iff the images of 1, 1+1, ..., n*1 in the ring are all regular."""
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    acc = ring.zero
    for _ in range(n):
        acc = acc + ring.one
        if not ring.is_regular(acc):
            return False
    return True


def frobenius(x: RingElem, j: int = 1) -> RingElem:
    """x^(p^j) on a finite field; j = 0 is the identity."""
    ring = x.ring
    if not (ring.is_finite and ring.is_field):
        raise UnsupportedRingError(f"frobenius needs a finite field, got {ring.spec_text()}")
    if j < 0:
        raise PreconditionError("frobenius power must be nonnegative")
    return x ** (ring.characteristic**j)


def parse_ring_spec(text: str) -> Ring:
    """Parse a ring literal: 'zmod m', 'prime p', 'gf p k c0 .. c{k-1}', 'rational'."""
    toks = text.split()
    if not toks:
        raise PreconditionError("empty ring spec")
    kind, args = toks[0], toks[1:]
    try:
        if kind == "zmod" and len(args) == 1:
            return Zmod(int(args[0]))
        if kind == "prime" and len(args) == 1:
            return PrimeField(int(args[0]))
        if kind == "gf" and len(args) >= 2:
            p, k = int(args[0]), int(args[1])
            digits = [int(a) for a in args[2:]]
            if len(digits) != k:
                raise PreconditionError(f"gf spec needs {k} modulus coefficients")
            return GaloisField(p, k, digits)
        if kind == "rational" and not args:
            return Rationals()
    except ValueError as exc:
        raise PreconditionError(f"bad ring spec {text!r}: {exc}") from exc
    raise PreconditionError(f"unrecognized ring spec {text!r}")
