"""End-to-end recovery of global affine-linearity from line restrictions.

On a table, `recover` checks f along every coordinate-parallel line and
extracts the multi-affine hypercube coefficients psi at the origin; a
polynomial is its own psi.  A function affine on every coordinate line
equals psi at every point, so f is affine iff psi has no coefficient of
degree >= 2, and along R*v it is r -> sum_k b_k r^k with
b = `restrict_radial(psi, v)`.  The line is affine iff the residual
sum_{k>=2} b_k (r^k - r) is zero at every element, and only psi's
coefficients of degree >= 2 feed it: with none, no direction is touched;
otherwise each line is decided by `Ring.is_null` on the values of
b_2..b_n, and scanned only to name its first refuting parameter.  The
residual forces b_k = 0 over Q but not over Z/m or GF(q): over Z/6,
f = 3xy is 3r^2 = 3r along (1,3).

The outcome is one of four certificates, each with a `status` and a
`document()`: `Affine`, `LineWitness`, `CoefficientWitness` (a surviving
coefficient of degree >= 2) and `CannotCancel` (the ring hides a nonzero
degree-k coefficient from an affine radial line, or proof mode meets a
factorial determinant that is not regular).  `recover` answers for the
given f only; whether the directions force every f to be affine is not
decided here (full column rank of the degree systems mod every p | m
does not decide it: (1,3) and (1,2) have it over Z/6).  A surviving
coefficient whose radial restrictions all vanish is a nonzero solution
of its degree's system, so that system is consulted only then, as a
consistency check.  The "proof" mode samples the integer parameters
0..n instead and relies on the factorial determinant being regular, the
historically primary route; it yields the same certificates on all the
pinned cases.
"""

from __future__ import annotations

import math
from itertools import combinations

from .errors import (
    ArityError,
    InconsistencyError,
    PreconditionError,
    RingMismatchError,
)
from .multiaffine import (
    MAX_ARITY,
    FunctionOracle,
    Line,
    MultiAffinePoly,
    TableOracle,
    index_point,
    mask_to_subset,
    point_values,
    psi_extract,
    radial_values,
    restriction_check,
    subset_product,
    subset_to_mask,
    unit_point,
    zero_point,
)
from .rings import Record, Ring, RingElem, format_elements


class DirectionSet(Record):
    """Nonzero test directions of one arity over one ring, in the given order.

    `family_directions` and `moment_directions` build the two standard
    shapes; any other tuple of nonzero vectors is accepted as well.
    """

    __slots__ = ("ring", "arity", "dirs")

    def __init__(self, ring: Ring, arity: int, dirs: tuple):
        if arity < 1:
            raise PreconditionError(f"arity must be >= 1, got {arity}")
        for v in dirs:
            if len(v) != arity:
                coords = ", ".join(c.ring.format_element(c) for c in v)
                raise ArityError(f"direction ({coords}) has arity {len(v)}, expected {arity}")
            if not any(c.value for c in v):
                raise PreconditionError("directions must be nonzero")
            if any(c.ring != ring for c in v):
                raise RingMismatchError("direction coordinate from a different ring")
        super().__init__(ring, arity, dirs)

    def __len__(self):
        return len(self.dirs)

    def subset(self, indices) -> "DirectionSet":
        return DirectionSet(self.ring, self.arity, tuple(self.dirs[i] for i in indices))


def family_directions(ring: Ring, n: int, coeffs=None) -> DirectionSet:
    """One direction per subset J of {1..n} with |J| >= 2, in (size, lex) order.

    The direction for J has coordinate c_j^J at each j in J and zero
    elsewhere; every coefficient must be regular.  `coeffs` maps the
    subset (as a tuple of indices) to its coefficient list; by default
    every coefficient is 1.
    """
    if n > MAX_ARITY:
        raise PreconditionError(f"arity must be at most {MAX_ARITY}, got {n}")
    dirs = []
    for size in range(2, n + 1):
        for subset in combinations(range(1, n + 1), size):
            if coeffs is None:
                cs = [ring.one] * size
            else:
                try:
                    cs = [ring.elem(c) for c in coeffs[subset]]
                except KeyError:
                    raise PreconditionError(f"no coefficients given for J={subset}") from None
                if len(cs) != size:
                    raise PreconditionError(f"J={subset} needs {size} coefficients")
            for j, c in zip(subset, cs):
                if not ring.is_regular(c):
                    raise PreconditionError(
                        f"coefficient for J={subset} at j={j} is not regular: "
                        f"{ring.format_element(c)}"
                    )
            vec = [ring.zero] * n
            for j, c in zip(subset, cs):
                vec[j - 1] = c
            dirs.append(tuple(vec))
    return DirectionSet(ring, n, tuple(dirs))


# the minimal direction count C(n, ceil(n/2)) at the largest arity: 12,870
MAX_DIRECTIONS = math.comb(MAX_ARITY, MAX_ARITY // 2)


def minimal_direction_count(n: int) -> int:
    """Exact minimal number of radial test directions over R^n, 2 <= n <= MAX_ARITY."""
    if n < 2:
        raise PreconditionError(f"need n >= 2, got {n}")
    if n > MAX_ARITY:
        raise PreconditionError(f"arity must be at most {MAX_ARITY}, got {n}")
    if n == 2:
        return 1
    return math.comb(n, (n + 1) // 2)


def moment_directions(s_elements, count: int) -> DirectionSet:
    """Directions v_i = (s_1^{i-1}, ..., s_n^{i-1}) for i = 1..count.

    At most MAX_ARITY nodes and MAX_DIRECTIONS directions are accepted.
    """
    if count < 1:
        raise PreconditionError(f"need at least one direction, got {count}")
    s_elements = list(s_elements)
    if not s_elements:
        raise PreconditionError("empty node set")
    if len(s_elements) > MAX_ARITY:
        raise PreconditionError(f"arity must be at most {MAX_ARITY}, got {len(s_elements)}")
    if count > MAX_DIRECTIONS:
        raise PreconditionError(f"direction count must be at most {MAX_DIRECTIONS}, got {count}")
    ring = s_elements[0].ring
    nodes = point_values(ring, s_elements)
    # v_{i+1} = v_i * s coordinatewise on values, so each power costs one product
    powers = [ring.one.value] * len(nodes)
    dirs = [tuple(RingElem(ring, p) for p in powers)]
    while len(dirs) < count:
        powers = [ring.mul(p, s) for p, s in zip(powers, nodes)]
        dirs.append(tuple(RingElem(ring, p) for p in powers))
    return DirectionSet(ring, len(s_elements), tuple(dirs))


def degree_system(dirs: DirectionSet, k: int) -> tuple[tuple, list]:
    """Homogeneous constraints on the degree-k coefficients, as (masks, rows).

    Row i corresponds to direction v_i and has entry prod_{j in J} (v_i)_j
    at the column of subset J, whose bitmask is `masks[col]`; columns go in
    subset-lex order and the right-hand side is zero.  The rows depend on
    the directions only: the values a function must meet are the degree-k
    coefficients of its radial restrictions, which `recover` reads off psi.
    """
    ring, one = dirs.ring, dirs.ring.one.value
    masks = tuple(subset_to_mask(s) for s in combinations(range(1, dirs.arity + 1), k))
    points = ([c.value for c in v] for v in dirs.dirs)
    return masks, [[RingElem(ring, subset_product(ring, one, m, x)) for m in masks] for x in points]


def factorial_det(n: int, ring: Ring) -> RingElem:
    """Image in the ring of prod_{i=1..n} i!, the determinant of the n x n
    matrix with row i = (i, i^2, ..., i^n)."""
    return ring.from_int(math.prod(math.factorial(i) for i in range(1, n + 1)))


class Affine(Record):
    """f(x) = constant + sum_i linear[i-1] * x_i, read off psi."""

    status = "affine"
    __slots__ = ("constant", "linear")

    def document(self) -> list[tuple[str, str]]:
        coeffs = format_elements((self.constant, *self.linear))
        return [("status", self.status), ("coeffs", coeffs)]


class LineWitness(Record):
    """A line on which f is not affine, with the refuting parameter triple."""

    status = "non-affine"
    __slots__ = ("line", "params")

    def document(self) -> list[tuple[str, str]]:
        witness = f"{self.line.text()} params {format_elements(self.params)}"
        return [("status", self.status), ("witness", witness)]


class CoefficientWitness(Record):
    """A coefficient of psi of degree >= 2 that survives: `mask` is its subset."""

    status = "non-affine"
    __slots__ = ("degree", "mask", "coeff")

    def document(self) -> list[tuple[str, str]]:
        subset = ",".join(str(i) for i in self.mask)
        return [
            ("status", self.status),
            ("witness", f"coeff {subset} = {format_elements([self.coeff])}"),
            ("degree", str(self.degree)),
        ]


class CannotCancel(Record):
    """The ring hides a degree-k coefficient from the lines; det is the
    factorial determinant."""

    status = "cannot-cancel"
    __slots__ = ("degree", "det")

    def document(self) -> list[tuple[str, str]]:
        return [
            ("status", self.status),
            ("degree", str(self.degree)),
            ("det", format_elements([self.det])),
        ]


Certificate = Affine | LineWitness | CoefficientWitness | CannotCancel


def _coordinate_line_failure(f: TableOracle) -> LineWitness | None:
    """Exhaustive check of every line parallel to a basis vector of a table.

    Lines go axis by axis, bases in enumeration order with the axis
    coordinate zero, and the witness is the first refuting parameter, as
    `line_affine_check` would give.  The scan runs on the table's element
    codes: along axis a the line through the point with index b takes the
    values codes[b + r * q^(n-a)] for the element codes r = 0..q-1.
    """
    ring, n, codes = f.ring, f.arity, f.codes
    q = ring.size
    for axis in range(1, n + 1):
        stride = q ** (n - axis)
        step = stride * q
        for start in range(0, len(codes), step):
            for base in range(start, start + stride):
                vals = codes[base : base + step : stride]
                want = ring.line(vals[0], ring.sub(vals[1], vals[0]))
                if vals != want:
                    r = next(r for r in range(q) if vals[r] != want[r])
                    line = Line(index_point(ring, n, base), unit_point(ring, n, axis))
                    params = (ring.zero, ring.one, ring.element_from_encoding(r))
                    return LineWitness(line, params)
    return None


def _verified_affine(f: FunctionOracle, psi: MultiAffinePoly) -> Affine:
    """The affine certificate from psi's constant and linear coefficients.

    A polynomial is its own psi, so its coefficients are the certificate;
    a table is re-verified against it at every point.
    """
    cert = Affine(psi.coeff(0), tuple(psi.coeff(1 << i) for i in range(f.arity)))
    if isinstance(f, TableOracle):
        # the candidate's value at every point, in the table's index order:
        # axis by axis, each value v becomes the line v + c_i * r
        want = [cert.constant.value]
        for c in cert.linear:
            want = [x for v in want for x in f.ring.line(v, c.value)]
        if want != f.codes:
            raise InconsistencyError("affine certificate failed pointwise verification")
    return cert


def recover(f: FunctionOracle, dirs: DirectionSet, mode: str = "exhaustive") -> Certificate:
    """Decide affine-linearity of f from coordinate and radial line data.

    (i) On a table, the first refuted coordinate-parallel line is the
    witness, and (ii) psi is extracted.  (iii) Every radial line is
    decided from psi's coefficients of degree >= 2 (see the module
    docstring).  (iv) Proof mode answers cannot-cancel when the factorial
    determinant is not regular.  (v) The first coefficient of degree
    k >= 2 decides: if some radial restriction has a nonzero degree-k
    coefficient, the ring hid it from the line, and the answer is
    cannot-cancel with the factorial determinant; otherwise it is the
    witness of a non-affine certificate.  With none, the certificate is
    psi's constant and linear coefficients, re-verified at every point
    of a table, on its element codes.
    """
    if mode not in ("exhaustive", "proof"):
        raise PreconditionError(f"unknown mode {mode!r}")
    ring, n = f.ring, f.arity
    if dirs.ring != ring:
        raise RingMismatchError("direction set ring differs from the oracle ring")
    if dirs.arity != n:
        raise ArityError(f"direction arity {dirs.arity} != oracle arity {n}")

    if isinstance(f, MultiAffinePoly):
        # multi-affine, hence affine on every coordinate line, and its own psi
        psi = f
    else:
        failure = _coordinate_line_failure(f)
        if failure is not None:
            return failure
        psi = psi_extract(f)
    # f = psi at every point, so f(r*v) = sum_k b_k r^k with b = restrict_radial(psi, v);
    # the residual sum_{k>=2} b_k (r^k - r) decides the line and names its
    # witness, so only psi's coefficients of degree >= 2 are restricted;
    # with none, every line is affine and no direction is touched
    high = MultiAffinePoly(ring, n, {m: c for m, c in psi.coeffs.items() if m.bit_count() >= 2})
    samples = None  # decided from b by ring.is_null
    if mode == "proof" and ring.is_finite:
        samples = [ring.from_int(t) for t in range(2, n + 1)]
    radials = []
    for v in () if high.is_zero else dirs.dirs:
        radials.append(radial_values(high, v))
        check = restriction_check(ring, radials[-1], samples)
        if not check.ok:
            return LineWitness(Line(zero_point(ring, n), v), check.witness)

    if mode == "proof":
        fac_det = factorial_det(n, ring)
        if not ring.is_regular(fac_det):
            degree = next((k for k in range(2, n + 1) if any(b[k] for b in radials)), 2)
            return CannotCancel(degree, fac_det)

    if high.is_zero:
        return _verified_affine(f, psi)
    # the first coefficient of degree >= 2, in (degree, subset-lex) order
    mask, value = high.terms()[0]
    k = mask.bit_count()
    # the degree-k coefficient of psi restricted to each radial line
    if any(b[k] for b in radials):
        # the radial checks passed, so no node set with a regular
        # Vandermonde determinant can exist in this ring
        return CannotCancel(k, factorial_det(n, ring))
    # the degree-k coefficients solve their homogeneous system, so the
    # system must have a nonzero solution; only this check needs linalg
    from .linalg import kernel_vector

    masks, rows = degree_system(dirs, k)
    if kernel_vector(rows, len(masks), ring) is None:
        raise InconsistencyError(f"degree-{k} system forced zero but coefficients survive")
    return CoefficientWitness(k, mask_to_subset(mask), value)
