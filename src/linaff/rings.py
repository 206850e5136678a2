"""Exact arithmetic for the coefficient rings of the recovery pipeline.

Four ring families are supported: the integers mod m, prime fields,
small Galois fields F_{p^k} in a polynomial basis, and arbitrary-precision
rationals.  Every element is kept in a unique canonical form and all
operations are exact; there is no floating point anywhere in the package.

An element of a finite ring is its code, an int in 0..size-1: the
residue for Z/m and prime fields, the base-p digit encoding
sum(d_i * p^i) of the coefficients d_i of its polynomial for Galois
fields.  A rational is a reduced fraction.  Each ring has one set of
value-level operations (`add`, `sub`, `mul`, `neg`, and for finite rings
`line` and `lines`) that both the RingElem operators and the code scans
over table oracles call: `%` for Z/m, add/mul/neg tables for Galois
fields.  One value-level test, `is_null`, decides whether a polynomial
is the zero function of the ring.

The regularity predicate follows the non-zerodivisor convention in which
0 is never regular, so cancelling a regular factor is always legitimate.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .errors import PreconditionError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all of them (Sorenson-Webster 2017)
PSI_13 = 3_317_044_064_679_887_385_961_981
RHO_STEPS = 2**18  # Pollard rho's step budget per cofactor in prime_factors

# The size cap for Galois fields: their tables have at most 81^2 entries.
GF_MAX_SIZE = 81


def is_prime(n: int) -> bool:
    """Whether n is prime, by the strong probable-prime test to the prime bases
    2..41, which is exact below PSI_13.  A composite verdict is a proof at
    any size; from PSI_13 on a prime one is not, so PreconditionError is
    raised instead of answering True."""
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
    if n >= PSI_13:
        raise PreconditionError(f"{n} is too large to certify as prime (limit {PSI_13 - 1})")
    return True


def prime_factors(m: int) -> tuple[int, ...]:
    """Distinct prime factors of m >= 1, ascending: trial division, then Pollard
    rho, about sqrt(p) steps for a prime factor p.  Past RHO_STEPS = 2^18 steps
    on one cofactor, about 1 s at 2-4 us a step, it raises PreconditionError."""
    found = set()
    cofactor = m
    for p in range(2, 1000):
        if p * p > cofactor:
            break
        if cofactor % p == 0:
            found.add(p)
            while cofactor % p == 0:
                cofactor //= p
    rest = [cofactor] if cofactor > 1 else []
    while rest:
        n = rest.pop()
        if is_prime(n):
            found.add(n)
            continue
        x = y = 2
        c = 1
        for _ in range(RHO_STEPS):
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
            if 1 < d < n:
                break
            if d == n:  # cycle closed without a split: restart with a new constant
                x = y = 2
                c += 1
        else:
            raise PreconditionError(f"cannot factor {m} within {RHO_STEPS} Pollard rho steps")
        rest += [d, n // d]
    return tuple(sorted(found))


# Record.__init__ sets the fields through this; assignment raises
setfield = object.__setattr__


class Record:
    """Base of the immutable result and table types.  The fields are the
    class's own `__slots__`, the only place they are named, and the
    positional `__init__` sets them in that order; a subclass that checks
    its arguments ends its own `__init__` in `super().__init__`.  Records
    are equal by type and fields, hash by the fields and show them."""

    __slots__ = ()

    def __init__(self, *fields):
        names = self.__slots__
        if len(fields) != len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} fields, got {len(fields)}"
            )
        for name, value in zip(names, fields):
            setfield(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of {type(self).__name__} cannot be changed")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class RingElem:
    """An element of a specific ring, always in canonical form.

    Arithmetic goes through the usual operators; mixing elements of
    different rings raises PreconditionError.
    """

    __slots__ = ("ring", "value")

    def __init__(self, ring: "Ring", value):
        self.ring = ring
        self.value = value

    def _other(self, other) -> "RingElem":
        if not isinstance(other, RingElem):
            raise PreconditionError(f"cannot combine {self!r} with {other!r}")
        if other.ring != self.ring:
            raise PreconditionError(
                f"mixed rings: {self.ring.spec_text()} vs {other.ring.spec_text()}"
            )
        return other

    def __add__(self, other):
        other = self._other(other)
        return RingElem(self.ring, self.ring.add(self.value, other.value))

    def __sub__(self, other):
        other = self._other(other)
        return RingElem(self.ring, self.ring.sub(self.value, other.value))

    def __mul__(self, other):
        other = self._other(other)
        return RingElem(self.ring, self.ring.mul(self.value, other.value))

    def __neg__(self):
        return RingElem(self.ring, self.ring.neg(self.value))

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
        # equal elements have equal values, so the value alone hashes them consistently
        return hash(self.value)

    def __repr__(self):
        return f"{self.ring.format_element(self)}@{self.ring.spec_text()}"

    @property
    def is_zero(self) -> bool:
        return self.value == self.ring.zero.value


class Ring:
    """Common interface of the four supported coefficient rings."""

    is_field = False
    is_finite = False
    size: int | None = None
    characteristic: int = 0
    zero: RingElem  # each ring's __init__ sets its zero and one
    one: RingElem

    def elem(self, raw) -> RingElem:
        """`raw` itself if it is an element of this ring, else raw input coerced."""
        if isinstance(raw, RingElem):
            if raw.ring != self:
                raise PreconditionError(f"{raw!r} is not in {self.spec_text()}")
            return raw
        return self._coerce(raw)

    def _coerce(self, raw) -> RingElem:
        raise NotImplementedError

    def from_int(self, n: int) -> RingElem:
        """Image of the integer n under the unique map Z -> ring (finite rings)."""
        return RingElem(self, n % self.characteristic)

    # value-level operations: on codes for finite rings, on fractions for Q

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def line(self, c: int, s: int) -> list[int]:
        """Codes of c + s*r for every element code r, in code order (finite rings)."""
        raise NotImplementedError

    def lines(self, g: list, h: list) -> list[int]:
        """Codes of g[i] + h[i]*r for every r, then every i: the q slabs of `line`s."""
        raise NotImplementedError

    def is_null(self, coeffs) -> bool:
        """Whether r -> sum_k coeffs[k] * r^k is zero at every element (values)."""
        raise NotImplementedError

    def is_regular(self, x: RingElem) -> bool:
        """True iff multiplication by x is injective: in a field, iff x is nonzero."""
        return x.value != 0

    def inverse(self, x: RingElem) -> RingElem:
        raise NotImplementedError

    def elements(self) -> list[RingElem]:
        """All elements of a finite ring in ascending code order."""
        if not self.is_finite:
            raise PreconditionError(f"{self.spec_text()} is not enumerable")
        return [RingElem(self, code) for code in range(self.size)]

    def element_from_encoding(self, code: int) -> RingElem:
        """The element of a finite ring with the given code, checked in range."""
        return RingElem(self, self._checked_code(code))

    def parse_code(self, text: str) -> int:
        """Code of the element written as `text`: its integer encoding, checked in range."""
        try:
            code = int(text)
        except ValueError as exc:
            raise PreconditionError(str(exc)) from None
        return self._checked_code(code)

    def _checked_code(self, code: int) -> int:
        if not 0 <= code < self.size:
            raise PreconditionError(f"encoding {code} out of range for {self.spec_text()}")
        return code

    def parse_element(self, text: str) -> RingElem:
        """Element from its file text: the code for finite rings, a fraction for Q."""
        return RingElem(self, self.parse_code(text))

    def format_code(self, code) -> str:
        return str(code)

    def format_element(self, x: RingElem) -> str:
        return self.format_code(x.value)

    def spec_text(self) -> str:
        """The canonical literal that `parse_ring_spec` reads back: the ring's identity."""
        raise NotImplementedError

    def __repr__(self):
        return self.spec_text()

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Ring) and self.spec_text() == other.spec_text()

    def __hash__(self):
        return hash(self.spec_text())


class Zmod(Ring):
    """The ring Z/mZ of integers modulo m >= 2, residues in [0, m).

    `primes`, the distinct prime factors of m, ascending, and `is_field` are
    found on first use; an element is regular iff it is nonzero mod each.
    """

    kind = "zmod"

    def __init__(self, m: int):
        if not isinstance(m, int) or m < 2:
            raise PreconditionError(f"modulus must be an integer >= 2, got {m}")
        self.m = m
        self.is_finite = True
        self.size = m
        self.characteristic = m
        self.zero = RingElem(self, 0)
        self.one = RingElem(self, 1)

    @functools.cached_property
    def is_field(self) -> bool:
        return is_prime(self.m)

    @functools.cached_property
    def primes(self) -> tuple[int, ...]:
        return prime_factors(self.m)

    def _coerce(self, raw) -> RingElem:
        return RingElem(self, int(raw) % self.m)

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def line(self, c, s):
        m = self.m
        return [(c + s * r) % m for r in range(m)]

    def lines(self, g, h):
        m = self.m
        return [(a + d * r) % m for r in range(m) for a, d in zip(g, h)]

    def is_null(self, coeffs):
        # Kempner: g = sum_j d_j (x)_j is zero on Z/m iff m | j! d_j for every j,
        # and j! d_j is the forward difference D^j g(0): iff g(0..deg g) = 0
        for x in range(min(len(coeffs), self.m)):
            acc = 0
            for c in reversed(coeffs):
                acc = acc * x + c
            if acc % self.m:
                return False
        return True

    def is_regular(self, x: RingElem) -> bool:
        return math.gcd(x.value, self.m) == 1

    def inverse(self, x: RingElem) -> RingElem:
        if math.gcd(x.value, self.m) != 1:
            raise PreconditionError(f"{x!r} is not invertible")
        return RingElem(self, pow(x.value, -1, self.m))

    def spec_text(self) -> str:
        return f"{self.kind} {self.m}"


class PrimeField(Zmod):
    """The field F_p = Z/pZ for a (deterministically verified) prime p."""

    kind = "prime"
    is_field = True

    def __init__(self, p: int):
        if not (isinstance(p, int) and p >= 2 and is_prime(p)):
            raise PreconditionError(f"{p} is not prime")
        super().__init__(p)
        self.p = p


class GaloisField(Ring):
    """F_{p^k} as F_p[t]/(modulus); an element is its code sum(d_i * p^i).

    The d_i are the coefficients of the element's polynomial in t, lowest
    first; elem() takes either the code or that digit vector.  The modulus
    is monic of degree k with the low-to-high coefficient list supplied by
    the caller.  Only desk-scale fields are accepted (p^k <= 81).
    Arithmetic is by add/mul/neg tables on codes, built at construction
    by `_field_tables`, whose search for a primitive element also rejects
    a reducible modulus.
    """

    def __init__(self, p: int, k: int, modulus):
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        if k < 1:
            raise PreconditionError(f"extension degree must be >= 1, got {k}")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k:
            raise PreconditionError(f"modulus needs exactly {k} coefficients")
        if p**k > GF_MAX_SIZE:
            raise PreconditionError(f"field size {p}^{k} exceeds the cap {GF_MAX_SIZE}")
        self.p = p
        self.k = k
        self.modulus = modulus
        self.is_finite = True
        self.is_field = True
        self.size = p**k
        self.characteristic = p
        self._tables = _field_tables(p, k, modulus)
        if self._tables is None:
            raise PreconditionError(
                f"x^{k} + {list(modulus)[::-1]}... is reducible over F_{p}"
            )
        self.zero = RingElem(self, 0)
        self.one = RingElem(self, 1)

    def _coerce(self, raw) -> RingElem:
        if isinstance(raw, int):
            return self.element_from_encoding(raw)
        digits = [int(c) % self.p for c in raw]
        if len(digits) != self.k:
            raise PreconditionError(f"digit vector must have length {self.k}")
        return RingElem(self, sum(d * self.p**i for i, d in enumerate(digits)))

    def add(self, a, b):
        return self._tables.add[a][b]

    def sub(self, a, b):
        tables = self._tables
        return tables.add[a][tables.neg[b]]

    def mul(self, a, b):
        return self._tables.mul[a][b]

    def neg(self, a):
        return self._tables.neg[a]

    def line(self, c, s):
        row = self._tables.add[c]
        return [row[x] for x in self._tables.mul[s]]

    def lines(self, g, h):
        add = self._tables.add
        return [add[a][mr[d]] for mr in self._tables.mul for a, d in zip(g, h)]

    def is_null(self, coeffs):
        # r^q = r at every element, so exponent k >= 1 folds to ((k-1) mod (q-1)) + 1;
        # a polynomial of degree < q is the zero function iff it is zero
        folded = list(coeffs[: self.size])
        for k in range(self.size, len(coeffs)):
            e = (k - 1) % (self.size - 1) + 1
            folded[e] = self.add(folded[e], coeffs[k])
        return not any(folded)

    def inverse(self, x: RingElem) -> RingElem:
        if x.value == 0:
            raise PreconditionError("0 is not invertible")
        return x ** (self.size - 2)

    def spec_text(self) -> str:
        return f"gf {self.p} {self.k} " + " ".join(str(c) for c in self.modulus)


_FieldTables = namedtuple("_FieldTables", "add mul neg")


@functools.cache
def _field_tables(p: int, k: int, modulus: tuple) -> _FieldTables | None:
    """Add, mul and neg tables on the codes of F_p[t]/(t^k + modulus), or
    None when that ring is not a field.

    This is the one place Galois-field arithmetic happens.  Sums are taken
    digit by digit mod p.  Products come from the powers of the least
    primitive element g: each power is the previous one times g, as
    polynomials over F_p reduced by the monic modulus, and then
    a*b = g^(log a + log b).  That is at most q - 1 polynomial products
    per candidate g (q = p^k), where a schoolbook table forms q^2.  The
    ring is a field iff some g has multiplicative order q - 1, so the
    search is also the irreducibility test.  The tables have q^2 entries,
    at most 81^2 = 6,561 under the size cap.
    """
    q = p**k
    digits = [[c // p**i % p for i in range(k)] for c in range(q)]

    def product(a, b) -> int:
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        # reduce by the monic modulus: t^k = -(c_{k-1} t^{k-1} + ... + c_0)
        for i in range(2 * k - 2, k - 1, -1):
            for j, c in enumerate(modulus):
                prod[i - k + j] -= prod[i] * c
        return sum(d % p * p**i for i, d in enumerate(prod[:k]))

    # a zero divisor never returns to 1, so each walk stops after q - 1 products
    for g in range(1, q):
        powers = [1]
        x = g
        while x != 1 and len(powers) < q - 1:
            powers.append(x)
            x = product(digits[x], digits[g])
        if x == 1 and len(powers) == q - 1:
            break
    else:
        return None
    # codes a = a_0 + p*a' and b alike: the low digits add mod p, a' and b' recursively
    add = [[0]]
    for _ in range(k):
        size = p * len(add)
        add = [[(a + b) % p + p * add[a // p][b // p] for b in range(size)] for a in range(size)]
    log = {x: i for i, x in enumerate(powers)}
    cycle = powers * 2
    mul = [[0] * q] + [[0] + [cycle[log[a] + log[b]] for b in range(1, q)] for a in range(1, q)]
    return _FieldTables(add=add, mul=mul, neg=[row.index(0) for row in add])


class Rationals(Ring):
    """The field Q with fully reduced arbitrary-precision fractions."""

    is_field = True  # infinite, of characteristic 0: the Ring defaults

    def __init__(self):
        # imported here, not at start-up: fractions also loads decimal
        from fractions import Fraction
        self.fraction = Fraction
        self.zero = RingElem(self, Fraction(0))
        self.one = RingElem(self, Fraction(1))

    def _coerce(self, raw) -> RingElem:
        return RingElem(self, self.fraction(raw))

    def from_int(self, n: int) -> RingElem:
        return RingElem(self, self.fraction(n))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_null(self, coeffs):
        return not any(coeffs)

    def inverse(self, x: RingElem) -> RingElem:
        if x.value == 0:
            raise PreconditionError("0 is not invertible")
        return RingElem(self, 1 / x.value)

    def parse_code(self, text: str):
        """The fraction written as `text`: a rational's value stands for its code."""
        try:
            return self.fraction(text)
        except ValueError as exc:
            raise PreconditionError(str(exc)) from None
        except ZeroDivisionError:
            raise PreconditionError(f"zero denominator in {text!r}") from None

    def format_code(self, v) -> str:
        try:
            return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        except ValueError:  # Python caps the digits of an int -> str conversion
            bits = max(v.numerator.bit_length(), v.denominator.bit_length())
            digits = int(bits * math.log10(2)) + 1
            raise PreconditionError(
                f"rational of about {digits} digits is too long to print"
            ) from None

    def spec_text(self) -> str:
        return "rational"


def format_elements(elems) -> str:
    """The elements' text, space-separated: a point's coordinates, a subset."""
    return " ".join(e.ring.format_element(e) for e in elems)


def frobenius(x: RingElem, j: int = 1) -> RingElem:
    """x^(p^j) on a finite field; j = 0 is the identity."""
    ring = x.ring
    if not (ring.is_finite and ring.is_field):
        raise PreconditionError(f"frobenius needs a finite field, got {ring.spec_text()}")
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
