"""End-to-end recovery of global affine-linearity from line restrictions.

The pipeline checks the function along every coordinate-parallel line,
extracts the multi-affine hypercube coefficients psi at the origin,
reads each supplied radial test line off psi's restriction to it, and
then reads the verdict off the coefficients, the same way over every
ring.  The outcome is one of four certificates, each with a `status`
and a `document()`:

  Affine              affine; its coefficients are re-verified against f
  LineWitness         non-affine: a refuted line
  CoefficientWitness  non-affine: a surviving coefficient of degree >= 2
  CannotCancel        cannot-cancel: the ring hides a nonzero degree-k
                      coefficient from an affine radial line, or proof
                      mode meets a factorial determinant that is not
                      regular (the factorial determinant is reported)

A function that is affine along every coordinate line equals its
multi-affine interpolant psi at every point, so f is affine iff psi has
no coefficient of degree >= 2, and along R*v it is the polynomial
r -> sum_k b_k r^k with b = `restrict_radial(psi, v)`.  The line is
affine iff sum_{k>=2} b_k (r^k - r) is zero at every element, which
forces b_k = 0 over Q but not over Z/m or GF(q): over Z/6, f = 3xy is
3r^2 = 3r along (1,3).  `recover` answers for the given f only; whether
the directions force every f to be affine is not decided here (full
column rank of the degree systems mod every p | m does not decide it:
(1,3) and (1,2) have it over Z/6).  A surviving coefficient whose
radial restrictions all vanish is a nonzero solution of its degree's
system, so that system is consulted only then, as a consistency check.

Two acquisition modes exist.  The default decides each radial line by
`Ring.is_null` and scans its parameters only to name the first refuting
one.  The "proof" mode instead samples the integer parameters 0..n and
relies on the factorial determinant being regular, which is the weaker
but historically primary route; it yields the same certificates on all
the pinned cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    ArityError,
    InconsistencyError,
    PreconditionError,
    RingMismatchError,
)
from .linalg import kernel_vector
from .multiaffine import (
    MAX_ARITY,
    FunctionOracle,
    Line,
    MultiAffinePoly,
    index_point,
    is_affine_poly,
    mask_to_subset,
    monomial,
    psi_extract,
    restrict_radial,
    restriction_check,
    subset_to_mask,
    unit_point,
    zero_point,
)
from .rings import Ring, RingElem, format_elements


@dataclass(frozen=True)
class DirectionSet:
    """Nonzero test directions of one arity over one ring, in the given order.

    `family_directions` and `moment_directions` build the two standard
    shapes; any other tuple of nonzero vectors is accepted as well.
    """

    ring: Ring
    arity: int
    dirs: tuple

    def __post_init__(self):
        if self.arity < 1:
            raise PreconditionError(f"arity must be >= 1, got {self.arity}")
        for v in self.dirs:
            if len(v) != self.arity:
                coords = ", ".join(c.ring.format_element(c) for c in v)
                raise ArityError(
                    f"direction ({coords}) has arity {len(v)}, expected {self.arity}"
                )
            if all(c.is_zero for c in v):
                raise PreconditionError("directions must be nonzero")
            for c in v:
                if c.ring != self.ring:
                    raise RingMismatchError("direction coordinate from a different ring")

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
    # v_{i+1} = v_i * s coordinatewise, so each power costs one product
    dirs = [tuple(s.ring.one for s in s_elements)]
    while len(dirs) < count:
        dirs.append(tuple(p * s for p, s in zip(dirs[-1], s_elements)))
    return DirectionSet(ring, len(s_elements), tuple(dirs))


def degree_system(dirs: DirectionSet, k: int) -> tuple[tuple, list]:
    """Homogeneous constraints on the degree-k coefficients, as (masks, rows).

    Row i corresponds to direction v_i and has entry prod_{j in J} (v_i)_j
    at the column of subset J, whose bitmask is `masks[col]`; columns go in
    subset-lex order and the right-hand side is zero.  The rows depend on
    the directions only: the values a function must meet are the degree-k
    coefficients of its radial restrictions, which `recover` reads off psi.
    """
    n, one = dirs.arity, dirs.ring.one
    masks = tuple(subset_to_mask(s) for s in combinations(range(1, n + 1), k))
    return masks, [[monomial(one, mask, v) for mask in masks] for v in dirs.dirs]


def factorial_det(n: int, ring: Ring) -> RingElem:
    """Image in the ring of prod_{i=1..n} i!, the determinant of the n x n
    matrix with row i = (i, i^2, ..., i^n)."""
    prod = 1
    for i in range(1, n + 1):
        prod *= math.factorial(i)
    return ring.from_int(prod)


@dataclass(frozen=True)
class Affine:
    """f(x) = constant + sum_i linear[i-1] * x_i, re-verified against f."""

    status = "affine"
    constant: RingElem
    linear: tuple

    def document(self) -> list[tuple[str, str]]:
        coeffs = format_elements((self.constant, *self.linear))
        return [("status", self.status), ("coeffs", coeffs)]


@dataclass(frozen=True)
class LineWitness:
    """A line on which f is not affine, with the refuting parameter triple."""

    status = "non-affine"
    line: Line
    params: tuple

    def document(self) -> list[tuple[str, str]]:
        witness = f"{self.line.text()} params {format_elements(self.params)}"
        return [("status", self.status), ("witness", witness)]


@dataclass(frozen=True)
class CoefficientWitness:
    """A coefficient of psi of degree >= 2 that survives: `mask` is its subset."""

    status = "non-affine"
    degree: int
    mask: tuple
    coeff: RingElem

    def document(self) -> list[tuple[str, str]]:
        subset = ",".join(str(i) for i in self.mask)
        return [
            ("status", self.status),
            ("witness", f"coeff {subset} = {format_elements([self.coeff])}"),
            ("degree", str(self.degree)),
        ]


@dataclass(frozen=True)
class CannotCancel:
    """The ring hides a degree-k coefficient from the lines; det is the
    factorial determinant."""

    status = "cannot-cancel"
    degree: int
    det: RingElem

    def document(self) -> list[tuple[str, str]]:
        return [
            ("status", self.status),
            ("degree", str(self.degree)),
            ("det", format_elements([self.det])),
        ]


Certificate = Affine | LineWitness | CoefficientWitness | CannotCancel


def _coordinate_line_failure(f: FunctionOracle) -> LineWitness | None:
    """Exhaustive check of every line parallel to a basis vector (tables only).

    Lines go axis by axis, bases in enumeration order with the axis
    coordinate zero, and the witness is the first refuting parameter, as
    `line_affine_check` would give.  The scan runs on the table's element
    codes: along axis a the line through the point with index b takes the
    values codes[b + r * q^(n-a)] for the element codes r = 0..q-1.

    A polynomial is multi-affine by construction, hence affine along all
    coordinate-parallel lines; no enumeration is needed there.
    """
    if isinstance(f, MultiAffinePoly):
        return None
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
    """Assemble the affine certificate and re-verify it against the oracle."""
    ring, n = f.ring, f.arity
    origin = zero_point(ring, n)
    c0 = f.value(origin)
    linear = tuple(f.value(unit_point(ring, n, i)) - c0 for i in range(1, n + 1))
    if isinstance(f, MultiAffinePoly):
        # coefficient comparison: the extracted polynomial must be exactly
        # the affine candidate
        if not is_affine_poly(psi):
            raise InconsistencyError("affine certificate with higher-degree coefficients")
        ok = psi.coeff(0) == c0 and all(
            psi.coeff(1 << (i - 1)) == linear[i - 1] for i in range(1, n + 1)
        )
    else:
        # the candidate's value at every point, in the table's index order:
        # axis by axis, each value v becomes the line v + c_i * r
        want = [c0.value]
        for c in linear:
            want = [x for v in want for x in ring.line(v, c.value)]
        ok = want == f.codes
    if not ok:
        raise InconsistencyError("affine certificate failed pointwise verification")
    return Affine(c0, linear)


def recover(f: FunctionOracle, dirs: DirectionSet, mode: str = "exhaustive") -> Certificate:
    """Decide affine-linearity of f from coordinate and radial line data.

    Pipeline: (i) every coordinate-parallel line must be affine, else a
    line witness is returned; (ii) the hypercube coefficients psi at the
    origin are extracted; (iii) every direction's radial line must be
    affine, which is read off psi's restriction to it; (iv) proof mode
    answers cannot-cancel when the factorial determinant is not regular;
    (v) the first coefficient of psi of
    degree k >= 2 decides: if the degree-k coefficient of some radial
    restriction is nonzero, the line passed only because the ring hid
    it, and the answer is cannot-cancel with the factorial determinant;
    otherwise the coefficient is the witness of a non-affine
    certificate.  With no such coefficient f is affine, and the
    certificate is re-verified before being returned: a polynomial by
    its coefficients, a table at every point.  On a table, step (i) and the
    re-verify run on the flat list of element codes through the ring's
    value-level operations.
    """
    if mode not in ("exhaustive", "proof"):
        raise PreconditionError(f"unknown mode {mode!r}")
    ring, n = f.ring, f.arity
    if dirs.ring != ring:
        raise RingMismatchError("direction set ring differs from the oracle ring")
    if dirs.arity != n:
        raise ArityError(f"direction arity {dirs.arity} != oracle arity {n}")

    failure = _coordinate_line_failure(f)
    if failure is not None:
        return failure

    psi = psi_extract(f)
    # f = psi at every point, so f(r*v) = sum_k b_k r^k for b in radials
    radials = [restrict_radial(psi, v) for v in dirs.dirs]

    samples = None  # decided from b by ring.is_null
    if mode == "proof" and ring.is_finite:
        samples = [ring.from_int(t) for t in range(2, n + 1)]
    for v, b in zip(dirs.dirs, radials):
        check = restriction_check(ring, b, samples)
        if not check.ok:
            return LineWitness(Line(zero_point(ring, n), v), check.witness)

    if mode == "proof":
        fac_det = factorial_det(n, ring)
        if not ring.is_regular(fac_det):
            degree = next(
                (k for k in range(2, n + 1) if any(not b[k].is_zero for b in radials)), 2
            )
            return CannotCancel(degree, fac_det)

    # the first coefficient of degree >= 2, in (degree, subset-lex) order
    survivor = next(((mask, c) for mask, c in psi.terms() if mask.bit_count() >= 2), None)
    if survivor is None:
        return _verified_affine(f, psi)

    mask, value = survivor
    k = mask.bit_count()
    # the degree-k coefficient of psi restricted to each radial line
    if any(not b[k].is_zero for b in radials):
        # the radial checks passed, so no node set with a regular
        # Vandermonde determinant can exist in this ring
        return CannotCancel(k, factorial_det(n, ring))
    # the degree-k coefficients solve their homogeneous system, so the
    # system must have a nonzero solution
    masks, rows = degree_system(dirs, k)
    if kernel_vector(rows, len(masks), ring) is None:
        raise InconsistencyError(f"degree-{k} system forced zero but coefficients survive")
    return CoefficientWitness(k, mask_to_subset(mask), value)
