"""End-to-end recovery of global affine-linearity from line restrictions.

The pipeline checks the function along every coordinate-parallel line,
extracts the multi-affine hypercube coefficients at the origin, checks
the supplied radial test directions, and then tries to force every
coefficient of degree >= 2 to zero through exact homogeneous systems,
one degree at a time.  The outcome is a certificate:

  affine         - coefficients found and re-verified against the oracle
  non-affine     - a refuted line, or a surviving higher-degree coefficient
  cannot-cancel  - the ring's arithmetic blocks the cancellation argument
                   (a determinant of the blocking system is reported)

A degree-k system forces its unknowns to zero iff it has full column
rank: over a field in the usual sense, over Z/m modulo every prime
p | m (McCoy, "Remarks on divisors of zero", 1942, with the Chinese
remainder theorem).  One elimination per prime decides it, so the
verdict is exact rather than the sufficient test of finding one square
subsystem with a regular determinant.

Two acquisition modes exist.  The default checks each radial line over
every ring element (finite rings) or symbolically (rationals).  The
"proof" mode instead samples the integer parameters 0..n and relies on
the factorial determinant being regular, which is the weaker but
historically primary route; it yields the same certificates on all the
pinned cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

from .errors import (
    ArityError,
    InconsistencyError,
    PreconditionError,
    RingMismatchError,
    UnsupportedRingError,
)
from .linalg import determinant, matrix_rank
from .multiaffine import (
    FunctionOracle,
    Line,
    MultiAffinePoly,
    PolyOracle,
    is_affine_poly,
    line_affine_check,
    mask_to_subset,
    monomial,
    point_scale,
    psi_extract,
    restrict_radial,
    subset_to_mask,
    unit_point,
    zero_point,
)
from .rings import Ring, RingElem


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
        for v in self.dirs:
            if len(v) != self.arity:
                raise ArityError(f"direction {v} has arity {len(v)}, expected {self.arity}")
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
    if n < 1:
        raise PreconditionError(f"arity must be >= 1, got {n}")
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


def moment_directions(s_elements, count: int) -> DirectionSet:
    """Directions v_i = (s_1^{i-1}, ..., s_n^{i-1}) for i = 1..count."""
    if count < 1:
        raise PreconditionError(f"need at least one direction, got {count}")
    s_elements = list(s_elements)
    if not s_elements:
        raise PreconditionError("empty node set")
    ring = s_elements[0].ring
    dirs = []
    for i in range(1, count + 1):
        dirs.append(tuple(s ** (i - 1) for s in s_elements))
    return DirectionSet(ring, len(s_elements), tuple(dirs))


@dataclass
class DegreeSystem:
    """Homogeneous constraints on the degree-k coefficients.

    Row i corresponds to direction v_i and has entry prod_{j in J} (v_i)_j
    at the column of subset J, whose bitmask is `masks[col]`; the
    right-hand side is zero.  The rows depend on the directions only: the
    values a function must meet are the degree-k coefficients of its
    radial restrictions, which `recover` reads off psi.
    """

    masks: tuple
    rows: list


def build_degree_systems(dirs: DirectionSet) -> dict[int, DegreeSystem]:
    """One system per degree k = 2..n, columns in subset-lex order."""
    n, one = dirs.arity, dirs.ring.one
    systems = {}
    for k in range(2, n + 1):
        masks = tuple(subset_to_mask(s) for s in combinations(range(1, n + 1), k))
        rows = [[monomial(one, mask, v) for mask in masks] for v in dirs.dirs]
        systems[k] = DegreeSystem(masks, rows)
    return systems


ALL_ZERO = "all-zero"
KERNEL = "kernel"
CANNOT_CANCEL = "cannot-cancel"


@dataclass
class SolveOutcome:
    """Result of solving one homogeneous system exactly.

    `det` is set on cannot-cancel only.
    """

    status: str
    det: RingElem | None = None


def solve_vandermonde_exact(rows, cols: int, ring: Ring) -> SolveOutcome:
    """Decide whether rows * x = 0, x with `cols` entries, forces x = 0.

    It does iff the system has full column rank (see `matrix_rank`: over
    Z/m, modulo every prime p | m), and the outcome is all-zero.  Short of
    that rank, a field or a system with fewer than `cols` nonzero rows
    gives kernel: a nonzero solution exists.  A ring with zerodivisors
    gives cannot-cancel instead, with the determinant of the first square
    subsystem of nonzero rows.
    """
    for row in rows:
        if len(row) != cols:
            raise PreconditionError("ragged system")
    if matrix_rank(rows, cols, ring) == cols:
        return SolveOutcome(ALL_ZERO)
    if not ring.is_field:
        live = [row for row in rows if not all(e.is_zero for e in row)]
        if len(live) >= cols:
            return SolveOutcome(CANNOT_CANCEL, det=determinant(live[:cols], ring))
    return SolveOutcome(KERNEL)


def factorial_vandermonde(n: int, ring: Ring) -> list[list[RingElem]]:
    """The n x n matrix with row i = (i, i^2, ..., i^n), entries taken in the ring."""
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    rows = []
    for i in range(1, n + 1):
        rows.append([ring.from_int(i**k) for k in range(1, n + 1)])
    return rows


def factorial_det(n: int, ring: Ring) -> RingElem:
    """Image in the ring of prod_{i=1..n} i!, the factorial_vandermonde determinant."""
    prod = 1
    for i in range(1, n + 1):
        prod *= math.factorial(i)
    return ring.from_int(prod)


AFFINE = "affine"
NON_AFFINE = "non-affine"


@dataclass
class Certificate:
    """Outcome of the recovery pipeline.

    Exactly one of the payload groups is populated: affine coefficients,
    a line witness (line + refuting parameter triple), a coefficient
    witness (degree, subset, value), or a cannot-cancel report (degree,
    determinant).
    """

    status: str
    constant: RingElem | None = None
    linear: tuple | None = None
    line: Line | None = None
    params: tuple | None = None
    degree: int | None = None
    mask: tuple | None = None
    coeff: RingElem | None = None
    det: RingElem | None = None

    @property
    def ok(self) -> bool:
        return self.status == AFFINE


def _coordinate_line_failure(f: FunctionOracle) -> Certificate | None:
    """Exhaustive check of every line parallel to a basis vector (tables only).

    A poly oracle is multi-affine by construction, hence affine along all
    coordinate-parallel lines; no enumeration is needed there.
    """
    if isinstance(f, PolyOracle):
        return None
    ring, n = f.ring, f.arity
    elems = ring.elements()
    for axis in range(1, n + 1):
        e_axis = unit_point(ring, n, axis)
        for rest in product(elems, repeat=n - 1):
            base = list(rest[: axis - 1]) + [ring.zero] + list(rest[axis - 1 :])
            line = Line(tuple(base), e_axis)
            check = line_affine_check(f, line)
            if not check.ok:
                return Certificate(NON_AFFINE, line=line, params=check.witness)
    return None


def _radial_failure(f: FunctionOracle, v, mode: str) -> Certificate | None:
    """Check f along the radial line R*v, exhaustively or at samples 0..n."""
    ring, n = f.ring, f.arity
    line = Line(zero_point(ring, n), v)
    if mode == "exhaustive":
        check = line_affine_check(f, line)
        if not check.ok:
            return Certificate(NON_AFFINE, line=line, params=check.witness)
        return None
    f0 = f.value(line.base)
    slope = f.value(v) - f0
    for t in range(2, n + 1):
        r = ring.from_int(t)
        if f.value(point_scale(r, v)) != f0 + slope * r:
            return Certificate(NON_AFFINE, line=line, params=(ring.zero, ring.one, r))
    return None


def _verified_affine(f: FunctionOracle, psi: MultiAffinePoly) -> Certificate:
    """Assemble the affine certificate and re-verify it against the oracle."""
    ring, n = f.ring, f.arity
    origin = zero_point(ring, n)
    c0 = f.value(origin)
    linear = tuple(f.value(unit_point(ring, n, i)) - c0 for i in range(1, n + 1))
    if isinstance(f, PolyOracle):
        # coefficient comparison: the extracted polynomial must be exactly
        # the affine candidate
        if not is_affine_poly(psi):
            raise InconsistencyError("affine certificate with higher-degree coefficients")
        ok = psi.coeff(0) == c0 and all(
            psi.coeff(1 << (i - 1)) == linear[i - 1] for i in range(1, n + 1)
        )
    else:
        ok = True
        for point in product(ring.elements(), repeat=n):
            want = c0
            for ci, xi in zip(linear, point):
                want = want + ci * xi
            if f.value(point) != want:
                ok = False
                break
    if not ok:
        raise InconsistencyError("affine certificate failed pointwise verification")
    return Certificate(AFFINE, constant=c0, linear=linear)


def recover(f: FunctionOracle, dirs: DirectionSet, mode: str = "exhaustive") -> Certificate:
    """Decide affine-linearity of f from coordinate and radial line data.

    Pipeline: (i) every coordinate-parallel line must be affine, else a
    line witness is returned; (ii) the hypercube coefficients at the
    origin are extracted; (iii) every direction's radial line must be
    affine; (iv) per degree k = 2..n, the observed degree-k constraint
    values must vanish (a nonzero value proves the ring blocked the
    cancellation, hence cannot-cancel with the factorial determinant) and
    the homogeneous system must force the degree-k coefficients to zero
    (a surviving nonzero coefficient yields a non-affine certificate, a
    system short of full column rank over a non-field yields
    cannot-cancel).  The final affine certificate is re-verified before
    being returned.
    """
    if mode not in ("exhaustive", "proof"):
        raise PreconditionError(f"unknown mode {mode!r}")
    ring, n = f.ring, f.arity
    if dirs.ring != ring:
        raise RingMismatchError("direction set ring differs from the oracle ring")
    if dirs.arity != n:
        raise ArityError(f"direction arity {dirs.arity} != oracle arity {n}")
    if not ring.is_finite and not isinstance(f, PolyOracle):
        raise UnsupportedRingError("recovery over the rationals needs a poly oracle")

    failure = _coordinate_line_failure(f)
    if failure is not None:
        return failure

    psi = psi_extract(f)

    radial_mode = mode if ring.is_finite else "exhaustive"
    for v in dirs.dirs:
        failure = _radial_failure(f, v, radial_mode)
        if failure is not None:
            return failure

    # degree-k constraint value of each direction: the degree-k
    # coefficient of psi restricted to its radial line
    radials = [restrict_radial(psi, v) for v in dirs.dirs]
    systems = build_degree_systems(dirs)

    if mode == "proof":
        fac_det = factorial_det(n, ring)
        if not ring.is_regular(fac_det):
            degree = 2
            for k in range(2, n + 1):
                if any(not b[k].is_zero for b in radials):
                    degree = k
                    break
            return Certificate(CANNOT_CANCEL, degree=degree, det=fac_det)

    for k in range(2, n + 1):
        system = systems[k]
        if any(not b[k].is_zero for b in radials):
            # the radial checks passed, so no node set with a regular
            # Vandermonde determinant can exist in this ring
            return Certificate(CANNOT_CANCEL, degree=k, det=factorial_det(n, ring))
        outcome = solve_vandermonde_exact(system.rows, len(system.masks), ring)
        if outcome.status == CANNOT_CANCEL:
            return Certificate(CANNOT_CANCEL, degree=k, det=outcome.det)
        degree_coeffs = [
            (mask, psi.coeff(mask)) for mask in system.masks if not psi.coeff(mask).is_zero
        ]
        if outcome.status == ALL_ZERO:
            if degree_coeffs:
                raise InconsistencyError(
                    f"degree-{k} system forced zero but coefficients survive"
                )
            continue
        # kernel: the directions cannot force this degree; a surviving
        # nonzero coefficient already refutes affinity of the oracle
        if degree_coeffs:
            mask, value = degree_coeffs[0]
            return Certificate(
                NON_AFFINE, degree=k, mask=mask_to_subset(mask), coeff=value
            )

    return _verified_affine(f, psi)
