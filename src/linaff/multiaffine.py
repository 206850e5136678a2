"""Multi-affine polynomials, hypercube coefficient extraction, line checks.

A multi-affine polynomial has degree at most one in each variable; its
coefficients are indexed by subsets of {1..n}, stored as bitmasks.  The
extraction operation recovers all coefficients of such a polynomial from
the function values on the 2^n vertices of a unit hypercube by exact
inclusion-exclusion (a finite-difference transform), and the line check
decides whether a function restricted to one affine line is affine with
a unique slope.

Points are plain tuples of RingElem.  Function oracles come in two
flavours: exhaustive tables over a finite ring, and multi-affine
polynomials (the only option over the rationals), which are their own
oracle.  Every line question about a polynomial is answered from its
coefficients: along base + R*dir it restricts to a polynomial in the
parameter, which `restriction_check` decides by `Ring.is_null`.  A table
stores its element codes (`RingElem.value`) in point-index order (see
`point_index`), as bytes over q <= 16 elements.  Scans over a table, and
the polynomial arithmetic (evaluation, shift, radial restriction, the
restriction check), run on element values through the ring's value-level
operations; each returned coefficient is wrapped once.
"""

from __future__ import annotations

from functools import reduce

from .errors import InconsistencyError, PreconditionError
from .rings import Record, Ring, RingElem, format_elements

MAX_ARITY = 16

Point = tuple  # tuple[RingElem, ...]


def mask_to_subset(mask: int) -> tuple[int, ...]:
    """Bitmask -> ascending 1-based variable indices."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def subset_to_mask(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << (i - 1)
    return mask


def zero_point(ring: Ring, n: int) -> Point:
    return (ring.zero,) * n


def unit_point(ring: Ring, n: int, axis: int) -> Point:
    """Standard basis vector e_axis (1-based axis)."""
    return tuple(ring.one if i == axis - 1 else ring.zero for i in range(n))


class MultiAffinePoly(Record):
    """Sparse multi-affine polynomial: sum over subsets J of a_J * prod_{j in J} x_j."""

    __slots__ = ("ring", "arity", "coeffs")

    def __init__(self, ring: Ring, arity: int, coeffs: dict[int, RingElem]):
        if not 1 <= arity <= MAX_ARITY:
            raise PreconditionError(f"arity must be in 1..{MAX_ARITY}, got {arity}")
        clean: dict[int, RingElem] = {}
        for mask, c in coeffs.items():
            if not 0 <= mask < (1 << arity):
                raise PreconditionError(f"mask {mask} out of range for arity {arity}")
            if c.ring != ring:
                raise PreconditionError("coefficient ring mismatch")
            if not c.is_zero:
                clean[mask] = c
        super().__init__(ring, arity, clean)

    def coeff(self, mask: int) -> RingElem:
        return self.coeffs.get(mask, self.ring.zero)

    def value(self, x: Point) -> RingElem:
        """Exact value of the polynomial at a point of matching arity."""
        if len(x) != self.arity:
            raise PreconditionError(f"point has arity {len(x)}, poly has {self.arity}")
        ring = self.ring
        return RingElem(ring, reduce(ring.add, radial_values(self, point_values(ring, x))))

    def terms(self):
        """Coefficients in (popcount, subset-lex) order."""
        return sorted(
            self.coeffs.items(), key=lambda kv: (kv[0].bit_count(), mask_to_subset(kv[0]))
        )

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for mask, c in self.terms():
            txt = self.ring.format_element(c)
            if mask:
                txt += "*" + "".join(f"x{i}" for i in mask_to_subset(mask))
            parts.append(txt)
        return " + ".join(parts)


def point_values(ring: Ring, x: Point) -> list:
    """The values of a point's coordinates, which must lie in the ring."""
    for c in x:
        if not (isinstance(c, RingElem) and (c.ring is ring or c.ring == ring)):
            raise PreconditionError(f"coordinate {c!r} is not in {ring.spec_text()}")
    return [c.value for c in x]


def subset_product(ring: Ring, c, mask: int, vals: list):
    """c * prod_{i in mask} x_i on values, bit i of the mask standing for x_{i+1}."""
    while mask:
        low = mask & -mask
        c = ring.mul(c, vals[low.bit_length() - 1])
        mask ^= low
    return c


def point_index(q: int, codes) -> int:
    """Mixed-radix index of a point from its coordinates' element codes.

    The first coordinate is the most significant digit base q, so index
    order is product(ring.elements(), repeat=n) order.
    """
    index = 0
    for c in codes:
        index = index * q + c
    return index


def vector_line(ring: Ring, base, direction) -> list[tuple]:
    """Values of base + r*direction for every element code r, in code order;
    base and direction are given as the values of their coordinates."""
    return list(zip(*map(ring.line, base, direction)))


def index_point(ring: Ring, arity: int, index: int) -> Point:
    """The point of ring^arity whose `point_index` is `index`."""
    q = ring.size
    digits = []
    for _ in range(arity):
        index, code = divmod(index, q)
        digits.append(code)
    return tuple(ring.element_from_encoding(c) for c in reversed(digits))


def flat_table(ring: Ring, arity: int, by_index: dict) -> list:
    """The values of a point-index -> value map as a list in index order.

    Every point of ring^arity must have a value; the first one without
    is named in the error.
    """
    size = ring.size**arity
    if len(by_index) != size:
        missing = next(i for i in range(size) if i not in by_index)
        coords = format_elements(index_point(ring, arity, missing))
        raise PreconditionError(f"table is missing the point {coords}")
    return list(map(by_index.__getitem__, range(size)))


class TableOracle(Record):
    """Function given by an exhaustive point -> value table over a finite ring.

    The values are stored as one flat sequence `codes` of element codes
    (`RingElem.value`), position i holding the value at the point with
    `point_index` i: `bytes` over q <= 16 elements, whatever built the
    table, else a list of its own.  The line scans and the affine re-verify
    run on these codes (`recovery` translates bytes by `rings.byte_tables`);
    `value` answers in RingElem.
    `from_codes` builds the table from codes in that order, checked; the
    table-file parser builds them in range and calls `_of_codes`.  The dict
    constructor converts its dict to them.  A table is an immutable record,
    equal by ring, arity and codes, and unhashable, bytes or not.
    """

    __slots__ = ("ring", "arity", "codes")
    __hash__ = None

    def __init__(self, ring: Ring, arity: int, table: dict[Point, RingElem]):
        _check_table_domain(ring, arity)
        by_index = {}
        for point, value in table.items():
            index = _key_index(ring, arity, point)
            if not (isinstance(value, RingElem) and value.ring == ring):
                raise PreconditionError(f"table value {value!r} is not in {ring.spec_text()}")
            by_index[index] = value.value
        super().__init__(ring, arity, stored_codes(ring, flat_table(ring, arity, by_index)))

    @classmethod
    def from_codes(cls, ring: Ring, arity: int, codes) -> "TableOracle":
        """The table whose value at the point with `point_index` i has code codes[i]."""
        _check_table_domain(ring, arity, len(codes))
        if min(codes) < 0 or max(codes) >= ring.size:
            raise PreconditionError(f"table value code out of range for {ring.spec_text()}")
        return cls._of_codes(ring, arity, codes)

    @classmethod
    def _of_codes(cls, ring: Ring, arity: int, codes) -> "TableOracle":
        """`from_codes` for codes known to be in range, as the table parser builds them."""
        _check_table_domain(ring, arity, len(codes))
        oracle = cls.__new__(cls)
        Record.__init__(oracle, ring, arity, stored_codes(ring, codes))
        return oracle

    def value(self, x: Point) -> RingElem:
        index = _checked_index(self.ring, self.arity, x)
        if index is None:
            raise PreconditionError(f"no table entry for point {format_elements(x)}")
        return RingElem(self.ring, self.codes[index])


def stored_codes(ring: Ring, codes):
    """Codes in range as a table stores them: bytes when q <= 16, so that a
    pair byte a*q + b fits, else a list (`bytes` keeps bytes as they are)."""
    return bytes(codes) if ring.size <= 16 else list(codes)


def _check_table_domain(ring: Ring, arity: int, entries: int | None = None):
    if not ring.is_finite:
        raise PreconditionError("table oracles need a finite ring; use a poly oracle")
    if not 1 <= arity <= MAX_ARITY:
        raise PreconditionError(f"arity must be in 1..{MAX_ARITY}, got {arity}")
    if entries is not None and entries != ring.size**arity:
        raise PreconditionError(f"table has {entries} entries, needs all {ring.size**arity} points")


def _checked_index(ring: Ring, arity: int, x) -> int | None:
    """`point_index` of x, or None when x is not a point of ring^arity."""
    if not (isinstance(x, tuple) and len(x) == arity):
        return None
    for c in x:
        if not (isinstance(c, RingElem) and (c.ring is ring or c.ring == ring)):
            return None
    return point_index(ring.size, (c.value for c in x))


def _key_index(ring: Ring, arity: int, key) -> int:
    """`point_index` of a table key, which must be a point of ring^arity."""
    index = _checked_index(ring, arity, key)
    if index is None:
        raise PreconditionError(
            f"table key {key!r} is not a point of {ring.spec_text()} of arity {arity}"
        )
    return index


FunctionOracle = TableOracle | MultiAffinePoly


class Line(Record):
    """Affine line base + R*dir; the direction must be nonzero."""

    __slots__ = ("base", "dir")

    def __init__(self, base: Point, dir: Point):
        if len(base) != len(dir):
            raise PreconditionError("line base and direction have different arities")
        if all(c.is_zero for c in dir):
            raise PreconditionError("line direction must be nonzero")
        super().__init__(base, dir)

    def text(self) -> str:
        return f"line base {format_elements(self.base)} dir {format_elements(self.dir)}"


class LineCheck(Record):
    """Outcome of a per-line affinity check: a slope, or a refuting triple."""

    __slots__ = ("slope", "witness")

    @property
    def ok(self) -> bool:
        return self.witness is None

    def document(self) -> list[tuple[str, str]]:
        if self.ok:
            return [("status", "affine"), ("slope", format_elements([self.slope]))]
        return [("status", "non-affine"), ("witness", f"params {format_elements(self.witness)}")]


def _check_arity(f: FunctionOracle, line: Line):
    if len(line.base) != f.arity:
        raise PreconditionError(f"line arity {len(line.base)} != oracle arity {f.arity}")


def line_affine_check(f: FunctionOracle, line: Line) -> LineCheck:
    """Decide whether f restricted to the line is affine.

    The candidate slope is forced to be f(base+dir) - f(base).  A table's
    codes at the points of `vector_line` are compared with the line
    f(base) + slope*r at every element code r; a polynomial's restriction
    is read off its coefficients by `restriction_check`.  On failure the
    witness is the parameter triple (0, 1, r) with r the first refuting
    parameter in canonical order.
    """
    _check_arity(f, line)
    ring = f.ring
    if isinstance(f, MultiAffinePoly):
        shifted = shift_poly(f, line.base)
        return restriction_check(ring, radial_values(shifted, point_values(ring, line.dir)))
    points = vector_line(ring, point_values(ring, line.base), point_values(ring, line.dir))
    vals = [f.codes[point_index(ring.size, p)] for p in points]
    slope = ring.sub(vals[1], vals[0])
    want = ring.line(vals[0], slope)
    if vals != want:
        r = next(r for r in range(ring.size) if vals[r] != want[r])
        return LineCheck(None, (ring.zero, ring.one, ring.element_from_encoding(r)))
    return LineCheck(RingElem(ring, slope), None)


def restriction_check(ring: Ring, b: list, params=None) -> LineCheck:
    """Whether g(r) = b_0 + b_1 r + ... + b_n r^n, b given as values, is affine in r.

    The slope is g(1) - g(0) = b_1 + ... + b_n.  By default g is affine iff
    `ring.is_null` holds for the residual g(r) - b_0 - slope*r, whose
    coefficients are [0, -(b_2 + ... + b_n), b_2, ..., b_n]; a line that
    fails is scanned only to name the witness: every element of a finite
    ring in code order, t = 2..n+2 over Q.  Given `params`, g is compared
    with b_0 + slope*r at each of them in order, by Horner's rule.  The
    witness is (0, 1, r) with r the first refuting parameter.
    """
    add, mul = ring.add, ring.mul
    slope = reduce(add, b[2:], b[1])
    decided = params is None
    if decided:
        if ring.is_null([ring.zero.value, ring.sub(b[1], slope), *b[2:]]):
            return LineCheck(RingElem(ring, slope), None)
        params = ring.elements() if ring.is_finite else map(ring.from_int, range(2, len(b) + 2))
    for r in params:
        acc = b[-1]
        for c in reversed(b[:-1]):
            acc = add(mul(acc, r.value), c)
        if acc != add(b[0], mul(slope, r.value)):
            return LineCheck(None, (ring.zero, ring.one, r))
    if decided:
        raise InconsistencyError("residual polynomial is not null yet refuted nowhere")
    return LineCheck(RingElem(ring, slope), None)


def psi_extract(f: FunctionOracle, base: Point | None = None) -> MultiAffinePoly:
    """Hypercube coefficients of f at the given base point.

    The coefficient at subset J is the alternating sum of f over the
    sub-hypercube spanned by J (inclusion-exclusion); the empty subset
    carries f(base).  For a table this is an in-place finite-difference
    transform on the codes of its 2^n vertex values, read by point index;
    a polynomial is multi-affine, so its coefficients at base are those
    of x -> f(base + x).
    """
    n = f.arity
    ring = f.ring
    if base is None:
        base = zero_point(ring, n)
    if len(base) != n:
        raise PreconditionError(f"base point arity {len(base)} != oracle arity {n}")
    if isinstance(f, MultiAffinePoly):
        return shift_poly(f, base)
    start = _checked_index(ring, n, base)
    if start is None:
        raise PreconditionError(f"no table entry for point {format_elements(base)}")
    # moving coordinate i from base_i to base_i + 1 moves the point index
    # by the difference of their codes times q^(n-1-i)
    index = [start]
    for i, c in enumerate(base):
        step = (ring.add(c.value, ring.one.value) - c.value) * ring.size ** (n - 1 - i)
        index += [j + step for j in index]
    vals = [f.codes[j] for j in index]
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                vals[mask] = ring.sub(vals[mask], vals[mask ^ bit])
    return MultiAffinePoly(ring, n, {m: RingElem(ring, v) for m, v in enumerate(vals) if v})


def radial_values(poly: MultiAffinePoly, v) -> list:
    """Values of the coefficients b_0..b_n of r -> poly(r*v), v the values of a
    direction of the poly's arity: b_k = sum over |J|=k of a_J prod_{j in J} v_j."""
    if len(v) != poly.arity:
        raise PreconditionError(f"direction arity {len(v)} != poly arity {poly.arity}")
    ring = poly.ring
    b = [ring.zero.value] * (poly.arity + 1)
    for mask, c in poly.coeffs.items():
        k = mask.bit_count()
        b[k] = ring.add(b[k], subset_product(ring, c.value, mask, v))
    return b


def is_affine_poly(poly: MultiAffinePoly) -> bool:
    """True iff every stored coefficient sits on a subset of size <= 1."""
    return all(mask.bit_count() <= 1 for mask in poly.coeffs)


def shift_poly(poly: MultiAffinePoly, base: Point) -> MultiAffinePoly:
    """The polynomial x -> poly(base + x), again multi-affine; base has poly's arity."""
    n, ring = poly.arity, poly.ring
    dense = [ring.zero.value] * (1 << n)
    for mask, c in poly.coeffs.items():
        dense[mask] = c.value
    for i, x in enumerate(point_values(ring, base)):
        if not x:
            continue
        bit = 1 << i
        for mask in range(1 << n):
            if not mask & bit:
                dense[mask] = ring.add(dense[mask], ring.mul(dense[mask | bit], x))
    return MultiAffinePoly(ring, n, {m: RingElem(ring, v) for m, v in enumerate(dense) if v})
