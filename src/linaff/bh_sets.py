"""Weak multiplicative B_h sets: verification, construction, and search.

A finite set S is a weak multiplicative B_h set when the products of its
h-element subsets are pairwise distinct.  The quantitative direction
bounds additionally need every difference of two distinct h-fold
products (1 < h < n) to be regular, and every element of S itself to be
regular; `verify_properties` checks the whole bundle and reports the
first failure deterministically.

Constructions: a geometric progression on the doubling exponents
{1, g, g^2, g^4, ...}, valid whenever g and g^k - 1 stay regular up to
k = 2^{n-1} - 1, and the first n primes inside the rationals.  For
finite rings a lexicographic exhaustive search is provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InconsistencyError, PreconditionError, UnsupportedRingError
from .rings import Ring, RingElem, Rationals, Zmod, is_prime


@dataclass(frozen=True)
class BhCandidate:
    """A list of pairwise distinct ring elements, kept in the given order."""

    ring: Ring
    elements: tuple

    def __post_init__(self):
        if not self.elements:
            raise PreconditionError("candidate set must be nonempty")
        for s in self.elements:
            if s.ring != self.ring:
                raise PreconditionError("element from a different ring")
        if len(set(self.elements)) != len(self.elements):
            raise PreconditionError("candidate elements must be pairwise distinct")

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class Collision:
    """Two distinct h-subsets with the same product."""

    left: tuple
    right: tuple
    product: RingElem


@dataclass(frozen=True)
class Property2Failure:
    """Two h-fold products whose difference is a zerodivisor."""

    h: int
    left: tuple
    right: tuple
    difference: RingElem


@dataclass
class BhReport:
    """Per-h collision verdicts plus the regularity checks of property (2)."""

    per_h: dict
    property2: Property2Failure | None
    nonregular_element: RingElem | None

    @property
    def ok(self) -> bool:
        return (
            all(v is None for v in self.per_h.values())
            and self.property2 is None
            and self.nonregular_element is None
        )

    def first_collision(self) -> Collision | None:
        for h in sorted(self.per_h):
            if self.per_h[h] is not None:
                return self.per_h[h]
        return None


def _product(ring: Ring, elems) -> RingElem:
    acc = ring.one
    for e in elems:
        acc = acc * e
    return acc


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
        prod = _product(ring, subset)
        if prod in seen:
            return Collision(seen[prod], subset, prod)
        seen[prod] = subset
    return None


def _first_nonregular_pair(ring: Ring, prods: list) -> tuple[int, int] | None:
    """Lexicographically first (a, b), a < b, with prods[a] - prods[b] not regular.

    Over Z/m a difference is a zerodivisor iff it vanishes mod some prime
    p | m, over a field iff it is zero: either way the two products share
    a residue class, so one dict pass per prime, keyed by residue, finds
    the first such pair.
    """
    best = None
    for p in ring.primes if isinstance(ring, Zmod) else (None,):
        first: dict = {}
        for b, x in enumerate(prods):
            a = first.setdefault(x.value if p is None else x.value % p, b)
            if a != b and (best is None or (a, b) < best):
                best = (a, b)
    return best


def verify_properties(candidate: BhCandidate) -> BhReport:
    """Full report: B_h for every 1 <= h <= n, regular product differences
    for 1 < h < n, and regularity of each element."""
    n = len(candidate)
    if n < 3:
        raise PreconditionError(f"property verification needs |S| >= 3, got {n}")
    ring = candidate.ring
    per_h = {h: verify_bh(candidate, h) for h in range(1, n + 1)}
    property2 = None
    for h in range(2, n):
        subsets = [tuple(candidate.elements[i] for i in c) for c in combinations(range(n), h)]
        prods = [_product(ring, s) for s in subsets]
        pair = _first_nonregular_pair(ring, prods)
        if pair is not None:
            a, b = pair
            property2 = Property2Failure(h, subsets[a], subsets[b], prods[a] - prods[b])
            break
    nonregular = None
    if property2 is None:
        nonregular = next((s for s in candidate.elements if not ring.is_regular(s)), None)
    return BhReport(per_h, property2, nonregular)


def construct_geometric(g: RingElem, n: int, ring: Ring | None = None) -> BhCandidate:
    """S = {1, g, g^2, g^4, ..., g^(2^{n-2})}; needs g and g^k - 1 regular
    for 1 <= k <= 2^{n-1} - 1."""
    if ring is None:
        ring = g.ring
    elif g.ring != ring:
        raise PreconditionError("generator from a different ring")
    if n < 2:
        raise PreconditionError(f"need n >= 2, got {n}")
    if not ring.is_regular(g):
        raise PreconditionError("generator g is not regular")
    power = ring.one
    for k in range(1, 2 ** (n - 1)):
        power = power * g
        if not ring.is_regular(power - ring.one):
            raise PreconditionError(f"g^{k} - 1 is not regular")
    exponents = [0] + [2**j for j in range(n - 1)]
    elements = tuple(g**e for e in exponents)
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


def search_bh(ring: Ring, n: int, budget: int = 1_000_000) -> BhCandidate | None:
    """First n-subset of the ring (lexicographic by encoding) passing
    verify_properties, or None if none exists within the budget of
    candidates tried (at least 1)."""
    if not ring.is_finite:
        raise UnsupportedRingError("search needs a finite ring; use construct_primes over Q")
    if n < 3:
        raise PreconditionError(f"search needs n >= 3, got {n}")
    if budget < 1:
        raise PreconditionError(f"budget must be >= 1, got {budget}")
    elems = ring.elements()
    tried = 0
    for picks in combinations(range(len(elems)), n):
        if tried >= budget:
            return None
        tried += 1
        candidate = BhCandidate(ring, tuple(elems[i] for i in picks))
        if verify_properties(candidate).ok:
            return candidate
    return None
