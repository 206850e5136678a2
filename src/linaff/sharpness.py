"""Sharpness of the direction-count bound N = C(n, ceil(n/2)).

`minimal_direction_count` is the exact minimal number of radial test
directions (1 for n = 2, the central binomial coefficient for n >= 3;
the latter grows like 2^(n + 1/2) / sqrt(pi * n), far below the 2^n -
(n + 1) directions of the one-per-subset family).  `lower_bound_witness`
defeats any smaller direction set by producing a homogeneous
degree-ceil(n/2) multi-affine polynomial that vanishes along every given
radial line yet is not affine.  `certify_directions` proves that the N
moment directions built from a verified node set suffice, by checking
that every per-degree Vandermonde determinant is regular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bh_sets import BhCandidate, verify_properties
from .errors import PreconditionError, RingMismatchError
from .linalg import determinant, kernel_basis
from .multiaffine import MultiAffinePoly, is_affine_poly, restrict_radial
from .recovery import DirectionSet, build_degree_systems, moment_directions
from .rings import Ring, RingElem


def minimal_direction_count(n: int) -> int:
    """Exact minimal number of radial test directions over R^n."""
    if n < 2:
        raise PreconditionError(f"need n >= 2, got {n}")
    if n == 2:
        return 1
    return math.comb(n, (n + 1) // 2)


@dataclass
class SharpnessWitness:
    """A non-affine polynomial invisible to the given directions.

    Every stored coefficient has the binding degree k = ceil(n/2); the
    radial restriction along each direction in `directions` has zero
    degree-k coefficient, so all line hypotheses hold, yet the polynomial
    is not affine.
    """

    poly: MultiAffinePoly
    directions: DirectionSet
    field: Ring
    degree: int


def lower_bound_witness(n: int, dirs: DirectionSet, fld: Ring) -> SharpnessWitness:
    """Defeat a direction set smaller than the minimal count.

    Solves the homogeneous degree-k system over the field by exact
    elimination; fewer equations than unknowns guarantee a nonzero
    kernel, and the first reduced-echelon kernel vector (lexicographic
    subset order on the columns) is returned as a polynomial.
    """
    if n < 3:
        raise PreconditionError(f"need n >= 3, got {n}")
    if not fld.is_field:
        raise PreconditionError("witness construction needs a field")
    if fld.is_finite and fld.size <= 2 ** (n - 1):
        raise PreconditionError(
            f"field of size {fld.size} is too small; need more than {2 ** (n - 1)} elements"
        )
    bound = minimal_direction_count(n)
    if len(dirs) >= bound:
        raise PreconditionError(f"{len(dirs)} directions are not fewer than N = {bound}")
    if dirs.ring != fld:
        raise RingMismatchError("directions live in a different ring")
    if dirs.arity != n:
        raise PreconditionError(f"direction arity {dirs.arity} != n = {n}")
    k = (n + 1) // 2
    system = build_degree_systems(dirs)[k]
    basis = kernel_basis(system.rows, len(system.masks), fld)
    if not basis:
        raise PreconditionError("direction set already forces the binding degree")
    poly = MultiAffinePoly(fld, n, dict(zip(system.masks, basis[0])))
    witness = SharpnessWitness(poly, dirs, fld, k)
    _validate_witness(witness)
    return witness


def _validate_witness(w: SharpnessWitness):
    if w.poly.is_zero or is_affine_poly(w.poly):
        raise PreconditionError("degenerate witness polynomial")
    for v in w.directions.dirs:
        if not restrict_radial(w.poly, v)[w.degree].is_zero:
            raise PreconditionError("witness is visible along a supplied direction")


@dataclass
class CertifyResult:
    """Per-degree determinants of the moment-direction systems."""

    ok: bool
    directions: DirectionSet
    dets: dict = field(default_factory=dict)
    degree: int | None = None
    det: RingElem | None = None


def certify_directions(n: int, ring: Ring, candidate: BhCandidate) -> CertifyResult:
    """Certify that the N moment directions from the node set are complete.

    For 2 <= k <= n-1 the degree-k system restricted to its first C(n,k)
    directions is a Vandermonde matrix in the subset products, whose
    determinant must be regular; the degree-n case is settled by the
    leading all-ones direction alone.
    """
    if n < 3:
        raise PreconditionError(f"need n >= 3, got {n}")
    if len(candidate) != n:
        raise PreconditionError(f"node set has {len(candidate)} elements, need {n}")
    if candidate.ring != ring:
        raise RingMismatchError("node set lives in a different ring")
    report = verify_properties(candidate)
    if not report.ok:
        raise PreconditionError(f"node set fails the B_h property bundle: {report}")
    count = minimal_direction_count(n)
    dirs = moment_directions(candidate.elements, count)

    systems = build_degree_systems(dirs)
    dets = {}
    for k in range(2, n):
        d = determinant(systems[k].rows[: len(systems[k].masks)], ring)
        dets[k] = d
        if not ring.is_regular(d):
            return CertifyResult(False, dirs, dets, degree=k, det=d)
    dets[n] = ring.one  # leading all-ones direction gives the 1x1 row [1]
    return CertifyResult(True, dirs, dets)
