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
    BudgetSpent,
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
    TableOracle,
    is_affine_poly,
    line_affine_check,
    psi_extract,
    restrict_radial,
)
from .recovery import (
    Affine,
    CannotCancel,
    Certificate,
    CoefficientWitness,
    DirectionSet,
    LineWitness,
    degree_system,
    factorial_det,
    family_directions,
    moment_directions,
    recover,
)
from .rings import (
    GaloisField,
    PrimeField,
    Rationals,
    Ring,
    RingElem,
    Zmod,
    frobenius,
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
    HypothesisCheck,
    SemilinearCert,
    VectorMapTable,
    check_hypotheses,
    enumerate_affine_lines,
    recover_semilinear,
)

__version__ = "0.1.0"
