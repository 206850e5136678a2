"""Ring arithmetic for the benchmark's input generator and verdict checker.

It is written apart from linaff on purpose: the inputs and the checks of
the program's answers must not rest on the code under test.  Elements of
finite rings are the integer codes of linaff's text formats (residues for
Z/m and prime fields, base-p digit codes for GF(p^k), lowest digit
first); rational elements are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


class Zmod:
    """Z/m; a prime modulus gives the prime field with spec 'prime p'."""

    def __init__(self, m: int):
        self.m = self.size = m
        self.char = m
        self.is_field = _is_prime(m)
        self.spec = f"prime {m}" if self.is_field else f"zmod {m}"

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return a * b % self.m

    def from_int(self, n):
        return n % self.m

    def is_regular(self, a):
        return gcd(a, self.m) == 1

    def elements(self):
        return range(self.m)

    def parse(self, text):
        value = int(text)
        if not 0 <= value < self.m:
            raise ValueError(f"{text!r} is not a residue mod {self.m}")
        return value

    def fmt(self, a):
        return str(a)


class GF:
    """F_{p^k} = F_p[t]/(t^k + c_{k-1} t^{k-1} + ... + c_0), by lookup tables."""

    def __init__(self, p: int, k: int, modulus):
        self.p, self.k = p, k
        self.size = p**k
        self.char = p
        self.is_field = True
        self.spec = f"gf {p} {k} " + " ".join(str(c) for c in modulus)
        digits = [self._digits(c) for c in range(self.size)]
        self._add = [
            [self._code([(x + y) % p for x, y in zip(a, b)]) for b in digits] for a in digits
        ]
        self._neg = [self._code([-x % p for x in a]) for a in digits]
        self._mul = [[self._poly_mul(a, b, modulus) for b in digits] for a in digits]

    def _digits(self, code):
        return [code // self.p**i % self.p for i in range(self.k)]

    def _code(self, digits):
        return sum(d * self.p**i for i, d in enumerate(digits))

    def _poly_mul(self, a, b, modulus):
        p, k = self.p, self.k
        acc = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                acc[i + j] = (acc[i + j] + x * y) % p
        for i in range(2 * k - 2, k - 1, -1):
            top, acc[i] = acc[i], 0
            for j, c in enumerate(modulus):
                acc[i - k + j] = (acc[i - k + j] - top * c) % p
        return self._code(acc[:k])

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def from_int(self, n):
        return n % self.p

    def is_regular(self, a):
        return a != 0

    def elements(self):
        return range(self.size)

    def parse(self, text):
        value = int(text)
        if not 0 <= value < self.size:
            raise ValueError(f"{text!r} is not an element code of GF({self.size})")
        return value

    def fmt(self, a):
        return str(a)


class Rational:
    """Q with exact Fractions."""

    spec = "rational"
    size = None
    char = 0
    is_field = True

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return Fraction(n)

    def is_regular(self, a):
        return a != 0

    def parse(self, text):
        return Fraction(text)

    def fmt(self, a):
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"


# the Galois fields the workloads use, with irreducible moduli
GF4 = (2, 2, (1, 1))
GF8 = (2, 3, (1, 1, 0))
GF9 = (3, 2, (2, 1))


def ring(spec):
    """Ring from a small spec: an int m for Z/m (prime m: the field), a GF triple, or 'rational'."""
    if spec == "rational":
        return Rational()
    if isinstance(spec, tuple):
        return GF(*spec)
    return Zmod(spec)


def power(R, a, e):
    acc = R.from_int(1)
    for _ in range(e):
        acc = R.mul(acc, a)
    return acc


def ring_sum(R, values):
    acc = R.from_int(0)
    for v in values:
        acc = R.add(acc, v)
    return acc


def ring_prod(R, values):
    acc = R.from_int(1)
    for v in values:
        acc = R.mul(acc, v)
    return acc


def subset_of(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def mask_of(indices):
    return sum(1 << (i - 1) for i in indices)


def poly_eval(R, coeffs, point):
    """Value of the multi-affine polynomial {mask: coeff} at a point."""
    return ring_sum(
        R, (R.mul(c, ring_prod(R, (point[i - 1] for i in subset_of(m)))) for m, c in coeffs.items())
    )


def radial_coeff(R, coeffs, v, k):
    """Coefficient of r^k in r -> poly(r v)."""
    return ring_sum(
        R,
        (R.mul(c, ring_prod(R, (v[i - 1] for i in subset_of(m))))
         for m, c in coeffs.items() if m.bit_count() == k),
    )


def affine_part(R, f, n):
    """(c0, (c1..cn)) of the only affine map that can equal f: f(0) and f(e_i) - f(0)."""
    zero = (R.from_int(0),) * n
    c0 = f(zero)
    linear = tuple(
        R.sub(f(tuple(R.from_int(1) if j == i else R.from_int(0) for j in range(n))), c0)
        for i in range(n)
    )
    return c0, linear


def is_affine_table(R, f, n):
    """Brute force over every point of R^n (finite R)."""
    c0, linear = affine_part(R, f, n)
    return all(
        f(x) == ring_sum(R, [c0] + [R.mul(c, xi) for c, xi in zip(linear, x)])
        for x in product(R.elements(), repeat=n)
    )


def hypercube_coeff(R, f, n, mask):
    """Alternating sum of f over the vertices {0,1}^J of the unit cube at the origin."""
    acc = R.from_int(0)
    J = subset_of(mask)
    for size in range(len(J) + 1):
        for S in combinations(J, size):
            point = tuple(R.from_int(1 if i + 1 in S else 0) for i in range(n))
            value = f(point)
            acc = R.add(acc, value) if (len(J) - size) % 2 == 0 else R.sub(acc, value)
    return acc


def line_point(R, base, direction, r):
    return tuple(R.add(b, R.mul(r, d)) for b, d in zip(base, direction))


def refutes_line(R, f, base, direction, r):
    """Three evaluations: f(b + r d) differs from f(b) + r (f(b + d) - f(b))."""
    f0 = f(tuple(base))
    f1 = f(line_point(R, base, direction, R.from_int(1)))
    return f(line_point(R, base, direction, r)) != R.add(f0, R.mul(r, R.sub(f1, f0)))


def bh_verdict(R, elements):
    """Status of linaff's B_h property bundle on a node list, with precedence:
    a collision of h-fold products (lowest h first), else a non-regular
    difference of h-fold products for 1 < h < n, else a non-regular element,
    else 'ok'."""
    n = len(elements)
    if not all(collision_free(R, elements, h) for h in range(1, n + 1)):
        return "collision"
    for h in range(2, n):
        products = [ring_prod(R, c) for c in combinations(elements, h)]
        if any(not R.is_regular(R.sub(a, b)) for a, b in combinations(products, 2)):
            return "non-regular-difference"
    if any(not R.is_regular(s) for s in elements):
        return "non-regular-element"
    return "ok"


def collision_free(R, elements, h):
    products = [ring_prod(R, c) for c in combinations(elements, h)]
    return len(set(products)) == len(products)


def first_bh_set(R, n):
    """Lexicographically first n-subset of the element codes passing the bundle, or None."""
    for picks in combinations(R.elements(), n):
        # the regularity test is cheap and rejects most subsets of Z/m early
        if all(R.is_regular(a) for a in picks) and bh_verdict(R, picks) == "ok":
            return picks
    return None


def multiplicative_order(R, g):
    acc, k = g, 1
    while acc != R.from_int(1):
        acc, k = R.mul(acc, g), k + 1
    return k


def frobenius(R, x, j):
    return power(R, x, R.char**j)
