"""Weak multiplicative B_h sets: verification, construction, and search.

A finite set S is a weak multiplicative B_h set when the products of its
h-element subsets are pairwise distinct.  The quantitative direction
bounds additionally need property (2): every difference of two distinct
h-fold products (1 < h < n) is regular.  Property (2) implies the rest
of the bundle: a collision is a zero difference, which is never regular;
distinct elements cannot collide at h = 1 or h = n; and a non-regular
element a makes a*b - a*c non-regular at h = 2.  So `verify_properties`
decides the bundle by one residue pass per h, and scans for collisions
only to name the first failure.

Constructions: a geometric progression on the doubling exponents
{1, g, g^2, g^4, ...}, valid whenever g and g^k - 1 stay regular up to
k = 2^{n-1} - 1, and the first n primes inside the rationals.  For
finite rings a lexicographic exhaustive search over the regular elements
is provided.  Node sets have at most MAX_ARITY elements, the largest
arity the direction machinery accepts.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

from .errors import InconsistencyError, PreconditionError, UnsupportedRingError
from .multiaffine import MAX_ARITY
from .rings import Rationals, Record, Ring, RingElem, Zmod, format_elements, is_prime


def _check_size(n: int):
    if n > MAX_ARITY:
        raise PreconditionError(f"node set must have at most {MAX_ARITY} elements, got {n}")


class BhCandidate(Record):
    """A list of pairwise distinct ring elements, kept in the given order."""

    __slots__ = ("ring", "elements")

    def __init__(self, ring: Ring, elements: tuple):
        if not elements:
            raise PreconditionError("candidate set must be nonempty")
        _check_size(len(elements))
        for s in elements:
            if s.ring != ring:
                raise PreconditionError("element from a different ring")
        if len(set(elements)) != len(elements):
            raise PreconditionError("candidate elements must be pairwise distinct")
        super().__init__(ring, elements)

    def __len__(self):
        return len(self.elements)

    def document(self) -> list[tuple[str, str]]:
        return [("status", "ok"), ("set", format_elements(self.elements))]


class Collision(Record):
    """Two distinct h-subsets with the same product."""

    __slots__ = ("left", "right", "product")

    def document(self) -> list[tuple[str, str]]:
        return [
            ("status", "collision"),
            ("left", format_elements(self.left)),
            ("right", format_elements(self.right)),
            ("product", format_elements([self.product])),
        ]


class Property2Failure(Record):
    """Two h-fold products whose difference is a zerodivisor."""

    __slots__ = ("h", "left", "right", "difference")


class BhReport(Record):
    """The first failures of the B_h property bundle: the lowest-h collision
    of h-fold products, and the first non-regular difference (property (2)).

    A collision is a zero difference, so it never comes without the other.
    """

    __slots__ = ("collision", "property2")

    @property
    def ok(self) -> bool:
        return self.collision is None and self.property2 is None

    def document(self) -> list[tuple[str, str]]:
        """The first failing property and its witness, else ok, as key/value text."""
        if self.collision is not None:
            return self.collision.document()
        if self.property2 is not None:
            f = self.property2
            return [
                ("status", "non-regular-difference"),
                ("witness", format_elements([f.difference])),
                ("left", format_elements(f.left)),
                ("right", format_elements(f.right)),
            ]
        return [("status", "ok")]


class BudgetSpent(Record):
    """A search that tried its whole budget of candidates without deciding."""

    __slots__ = ("budget",)

    def document(self) -> list[tuple[str, str]]:
        return [("status", "inconclusive"), ("budget", str(self.budget))]


def verify_bh(candidate: BhCandidate, h: int) -> Collision | None:
    """None iff the product map on h-subsets is injective; else the first collision.

    Subsets are enumerated in lexicographic position order, so the
    reported pair is deterministic: the earlier subset on the left.
    """
    n = len(candidate)
    if not 1 <= h <= n:
        raise PreconditionError(f"h must be in 1..{n}, got {h}")
    ring = candidate.ring
    seen: dict[RingElem, tuple] = {}
    for picks in combinations(range(n), h):
        subset = tuple(candidate.elements[i] for i in picks)
        product = prod(subset, start=ring.one)
        if product in seen:
            return Collision(seen[product], subset, product)
        seen[product] = subset
    return None


def _first_nonregular_pair(ring: Ring, prods: list) -> tuple[int, int] | None:
    """Lexicographically first (a, b), a < b, with prods[a] - prods[b] not regular.

    The products are values.  Over Z/m a difference is a zerodivisor iff
    it vanishes mod some prime p | m, over a field iff it is zero: either
    way the two products share a residue class, so one dict pass per
    prime, keyed by residue, finds the first such pair.
    """
    best = None
    for p in ring.primes if isinstance(ring, Zmod) else (None,):
        first: dict = {}
        for b, x in enumerate(prods):
            a = first.setdefault(x if p is None else x % p, b)
            if a != b and (best is None or (a, b) < best):
                best = (a, b)
    return best


def verify_properties(candidate: BhCandidate) -> BhReport:
    """The B_h property bundle, decided by property (2) alone.

    The bundle holds iff every difference of two h-fold products is regular
    for 1 < h < n (see the module docstring).  The products of all 2^n
    subsets form one table on values, and each h is decided on its subsets
    in mask order.  Only a failure scans the h-subsets in combination
    order, to name the first non-regular difference, and the collisions
    from the failing h up, since none lies below it.
    """
    n = len(candidate)
    if n < 3:
        raise PreconditionError(f"property verification needs |S| >= 3, got {n}")
    ring, elements = candidate.ring, candidate.elements
    table = [ring.one.value]
    for s in elements:
        table += [ring.mul(x, s.value) for x in table]
    levels = [[] for _ in range(n + 1)]
    for mask, x in enumerate(table):
        levels[mask.bit_count()].append(x)
    for h in range(2, n):
        if _first_nonregular_pair(ring, levels[h]) is None:
            continue
        masks = [sum(1 << i for i in c) for c in combinations(range(n), h)]
        a, b = (masks[j] for j in _first_nonregular_pair(ring, [table[m] for m in masks]))
        left, right = (tuple(s for i, s in enumerate(elements) if m >> i & 1) for m in (a, b))
        failure = Property2Failure(h, left, right, RingElem(ring, ring.sub(table[a], table[b])))
        collisions = (verify_bh(candidate, k) for k in range(h, n))
        return BhReport(next(filter(None, collisions), None), failure)
    return BhReport(None, None)


def construct_geometric(g: RingElem, n: int) -> BhCandidate:
    """S = {1, g, g^2, g^4, ..., g^(2^{n-2})} in g's ring; needs g and
    g^k - 1 regular for 1 <= k <= 2^{n-1} - 1."""
    ring = g.ring
    if n < 2:
        raise PreconditionError(f"need n >= 2, got {n}")
    _check_size(n)
    if not ring.is_regular(g):
        raise PreconditionError("generator g is not regular")
    # over Q, g^k = 1 forces g = 1 or g = -1, so g^2 = 1: k = 1, 2 decide
    end = 2 ** (n - 1) if ring.is_finite else min(2 ** (n - 1), 3)
    power = ring.one
    for k in range(1, end):
        power = power * g
        if not ring.is_regular(power - ring.one):
            raise PreconditionError(f"g^{k} - 1 is not regular")
    exponents = [0] + [2**j for j in range(n - 1)]
    elements = tuple(g**e for e in exponents)
    # the set is reported as text, so one that cannot be printed fails
    # before the bundle check forms its products
    format_elements(elements)
    candidate = BhCandidate(ring, elements)
    if n >= 3 and not verify_properties(candidate).ok:
        raise InconsistencyError("geometric construction violated its own guarantee")
    return candidate


def _first_primes(n: int) -> list[int]:
    primes = []
    p = 2
    while len(primes) < n:
        if is_prime(p):
            primes.append(p)
        p += 1
    return primes


def construct_primes(n: int) -> BhCandidate:
    """The first n primes as rationals; distinct products by unique factorization."""
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    ring = Rationals()
    return BhCandidate(ring, tuple(ring.from_int(p) for p in _first_primes(n)))


def search_bh(ring: Ring, n: int, budget: int = 1_000_000) -> BhCandidate | BudgetSpent | None:
    """First n-subset of the ring (lexicographic by encoding) passing
    verify_properties; None when there is none, and BudgetSpent when
    `budget` candidates (at least 1) were tried without finding one.

    At h = 2 every a*(b - c) must be regular, so a B_h set holds only
    regular elements, pairwise distinct modulo every prime p | m: over Z/m
    it has at most p_min - 1 elements, over GF(q) at most q - 1.  Larger n
    is answered at once, and only regular elements are enumerated, which
    skips exactly the candidates that always fail.  Property (2) is a
    residue condition mod each p | m, so by the CRT Z/m has a set iff
    every F_p does, and Z/m is searched only then, each with the budget.
    """
    if not ring.is_finite:
        raise UnsupportedRingError("search needs a finite ring; use construct_primes over Q")
    if n < 3:
        raise PreconditionError(f"search needs n >= 3, got {n}")
    _check_size(n)
    if budget < 1:
        raise PreconditionError(f"budget must be >= 1, got {budget}")
    if isinstance(ring, Zmod):
        if n >= ring.primes[0]:
            return None
        fields = () if ring.is_field else map(Zmod, ring.primes)
        if any(search_bh(fld, n, budget) is None for fld in fields):
            return None
    regular = [e for e in ring.elements() if ring.is_regular(e)]
    for tried, picks in enumerate(combinations(regular, n)):
        if tried == budget:
            return BudgetSpent(budget)
        candidate = BhCandidate(ring, picks)
        if verify_properties(candidate).ok:
            return candidate
    return None
