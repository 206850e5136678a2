"""Exact decision procedures for affine-linearity from line restrictions.

The package decides, certifies and refutes global affine-linearity of
functions on R^n given their behaviour on affine lines, over Z/m, finite
fields and the rationals, entirely in exact arithmetic.  It also covers
the sharp minimal direction count, weak multiplicative B_h node sets,
and semilinear (von Staudt style) recovery of line-preserving maps.
"""

from .bh_sets import (
    BhCandidate,
    BhReport,
    Collision,
    construct_geometric,
    construct_primes,
    search_bh,
    verify_bh,
    verify_properties,
)
from .errors import (
    ArityError,
    DomainTooLargeError,
    InconsistencyError,
    LinaffError,
    MissingPointError,
    NotEnumerableError,
    ParseError,
    PreconditionError,
    RingMismatchError,
    UnsupportedRingError,
)
from .multiaffine import (
    Line,
    LineCheck,
    MultiAffinePoly,
    PolyOracle,
    TableOracle,
    evaluate,
    is_affine_poly,
    line_affine_check,
    psi_extract,
    restrict_radial,
)
from .recovery import (
    Certificate,
    DegreeSystem,
    DirectionSet,
    SolveOutcome,
    build_degree_systems,
    factorial_det,
    family_directions,
    moment_directions,
    factorial_vandermonde,
    recover,
    solve_vandermonde_exact,
)
from .rings import (
    GaloisField,
    PrimeField,
    Rationals,
    Ring,
    RingElem,
    Zmod,
    characteristic_regular_upto,
    frobenius,
    is_regular,
    parse_ring_spec,
)
from .sharpness import (
    CertifyResult,
    SharpnessWitness,
    certify_directions,
    lower_bound_witness,
    minimal_direction_count,
)
from .vonstaudt import (
    AutomorphismId,
    HypothesisCheck,
    SemilinearCert,
    VectorMapTable,
    check_hypotheses,
    enumerate_affine_lines,
    identify_automorphism,
    recover_semilinear,
)

__version__ = "0.1.0"
