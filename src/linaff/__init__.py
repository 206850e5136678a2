"""Exact decision procedures for affine-linearity from line restrictions.

The package decides, certifies and refutes global affine-linearity of
functions on R^n given their behaviour on affine lines, over Z/m, finite
fields and the rationals, entirely in exact arithmetic.  It also covers
the sharp minimal direction count, weak multiplicative B_h node sets,
and semilinear (von Staudt style) recovery of line-preserving maps.

Every name in `__all__` is imported from its module on first use
(PEP 562), so `import linaff` alone loads no submodule.
"""

import importlib

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "bh_sets": "BhCandidate BhReport BudgetSpent Collision construct_geometric "
    "construct_primes search_bh verify_bh verify_properties",
    "errors": "InconsistencyError LinaffError ParseError PreconditionError",
    "multiaffine": "Line LineCheck MultiAffinePoly TableOracle is_affine_poly "
    "line_affine_check psi_extract radial_values",
    "recovery": "Affine CannotCancel Certificate CoefficientWitness DirectionSet "
    "LineWitness degree_system factorial_det family_directions "
    "minimal_direction_count moment_directions recover",
    "rings": "GaloisField PrimeField Rationals Ring RingElem Zmod frobenius parse_ring_spec",
    "sharpness": "CertifyResult SharpnessWitness certify_directions lower_bound_witness",
    "vonstaudt": "HypothesisCheck SemilinearCert VectorMapTable check_hypotheses "
    "enumerate_affine_lines recover_semilinear",
}
# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names.split()}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
