"""Sharpness of the direction-count bound N = C(n, ceil(n/2)).

`minimal_direction_count` (kept in `recovery`, which builds the moment
directions, and re-exported here) is the exact minimal number of radial test
directions (1 for n = 2, the central binomial coefficient for n >= 3;
the latter grows like 2^(n + 1/2) / sqrt(pi * n), far below the 2^n -
(n + 1) directions of the one-per-subset family).  `lower_bound_witness`
defeats any smaller direction set by producing a homogeneous
degree-ceil(n/2) multi-affine polynomial that vanishes along every given
radial line yet is not affine.  `certify_directions` proves that the N
moment directions built from a node set suffice: each per-degree system
is a Vandermonde matrix in the subset products, and the node set's B_h
property bundle makes its determinant regular, so verifying the bundle
is the whole proof.
"""

from __future__ import annotations

from .bh_sets import BhCandidate, verify_properties
from .errors import InconsistencyError, PreconditionError
from .linalg import kernel_vector
from .multiaffine import MAX_ARITY, MultiAffinePoly, is_affine_poly, radial_values
from .recovery import DirectionSet, degree_system, minimal_direction_count
from .rings import Record, Ring, RingElem


class SharpnessWitness(Record):
    """A non-affine polynomial invisible to the given directions.

    Every stored coefficient has the binding degree k = ceil(n/2); the
    radial restriction along each given direction has zero degree-k
    coefficient, so all line hypotheses hold, yet the polynomial is not
    affine.
    """

    __slots__ = ("poly", "degree")

    def document(self) -> list[tuple[str, str]]:
        return [("status", "witness"), ("witness", repr(self.poly)), ("degree", str(self.degree))]


def lower_bound_witness(n: int, dirs: DirectionSet, fld: Ring) -> SharpnessWitness:
    """Defeat a direction set smaller than the minimal count.

    Solves the homogeneous degree-k system over the field by exact
    elimination; fewer equations than unknowns guarantee a nonzero
    kernel, and the first reduced-echelon kernel vector (lexicographic
    subset order on the columns) is returned as a polynomial, checked to
    be non-affine and invisible along every direction.  The arguments
    are checked first; only a fault in the elimination can fail the
    checks after it, which raise InconsistencyError.
    """
    if n < 3:
        raise PreconditionError(f"need n >= 3, got {n}")
    if n > MAX_ARITY:
        raise PreconditionError(f"arity must be at most {MAX_ARITY}, got {n}")
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
        raise PreconditionError("directions live in a different ring")
    if dirs.arity != n:
        raise PreconditionError(f"direction arity {dirs.arity} != n = {n}")
    k = (n + 1) // 2
    masks, rows = degree_system(dirs, k)
    vector = kernel_vector(rows, len(masks), fld)
    if vector is None:
        raise InconsistencyError("direction set already forces the binding degree")
    poly = MultiAffinePoly(fld, n, {m: RingElem(fld, x) for m, x in zip(masks, vector)})
    if poly.is_zero or is_affine_poly(poly):
        raise InconsistencyError("degenerate witness polynomial")
    for v in dirs.dirs:
        if radial_values(poly, v)[k]:
            raise InconsistencyError("witness is visible along a supplied direction")
    return SharpnessWitness(poly, k)


class CertifyResult(Record):
    """The N moment directions `moment_directions(ring, nodes, N)` are complete; the
    B_h bundle the nodes pass is the certificate, so they are not built."""

    __slots__ = ()

    def document(self) -> list[tuple[str, str]]:
        return [("status", "ok")]


def certify_directions(n: int, ring: Ring, candidate: BhCandidate) -> CertifyResult:
    """Certify that the N moment directions from the node set are complete.

    For 2 <= k <= n-1 the degree-k system on the first C(n,k) directions
    is the Vandermonde matrix M[i][J] = P_J^i (i = 0..C(n,k)-1) in the
    subset products P_J, with determinant prod_{J < J'} (P_J' - P_J).
    Property (2) of the B_h bundle makes every factor regular, so the
    determinant is regular; the degree-n system is the 1x1 row [1] of the
    all-ones direction.  A node set that passes `verify_properties` is
    therefore the certificate, as in the paper's sharpness proof, and no
    determinant is computed.
    """
    if n < 3:
        raise PreconditionError(f"need n >= 3, got {n}")
    if len(candidate) != n:
        raise PreconditionError(f"node set has {len(candidate)} elements, need {n}")
    if candidate.ring != ring:
        raise PreconditionError("node set lives in a different ring")
    report = verify_properties(candidate)
    if not report.ok:
        failure = "; ".join(f"{k}: {v}" for k, v in report.document())
        raise PreconditionError(f"node set fails the B_h property bundle: {failure}")
    return CertifyResult()
