"""Semilinear recovery for line-preserving maps between small vector spaces.

A map f : F^d -> F^e given by an exhaustive table is accepted when it
carries every affine line onto an affine line and separates points from
lines they avoid (f(v) not in f(l) whenever v is not on l).  Over a
finite field the first hypothesis implies the second: a line image with
all q points makes f injective on the line, any two points of F^d lie on
a common line, so f is injective, and f(v) in f(l) would put a second
preimage of f(v) on l.  Any such map decomposes as a translation
composed with a tau-linear map, where tau is a power of the Frobenius
automorphism; `recover_semilinear` extracts and re-verifies that
decomposition pointwise.

Everything here is exhaustive, so the domains are capped at desk scale:
|F| in 3..9 and d*e <= 6.  F_2 is rejected because the separation
argument needs a third scalar.

Over a prime field the Frobenius power is always 0, since F_p has no
automorphism but the identity; the same collapse happens over any field
with a trivial automorphism group (the rationals, the reals, the p-adic
fields), which are beyond table oracles and noted here only for context.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import (
    DomainTooLargeError,
    InconsistencyError,
    PreconditionError,
)
from .multiaffine import Line, point_add, point_scale
from .rings import Ring

MAX_FIELD_SIZE = 9
MAX_DIM_PRODUCT = 6
MAX_DOMAIN_POINTS = 10_000


def _point_key(point):
    return tuple(c.ring.encode(c) for c in point)


def _all_points(fld: Ring, dim: int):
    return list(product(fld.elements(), repeat=dim))


class VectorMapTable:
    """Exhaustive table of a map F_q^d -> F_q^e over a finite field, q > 2."""

    def __init__(self, fld: Ring, dim_in: int, dim_out: int, mapping: dict):
        if not (fld.is_finite and fld.is_field):
            raise PreconditionError("vector map tables need a finite field")
        if fld.size <= 2:
            raise PreconditionError("the field must have more than two elements")
        if fld.size > MAX_FIELD_SIZE:
            raise DomainTooLargeError(f"field size {fld.size} exceeds the cap {MAX_FIELD_SIZE}")
        if dim_in < 2:
            raise PreconditionError(f"domain dimension must be >= 2, got {dim_in}")
        if dim_out < 1:
            raise PreconditionError(f"codomain dimension must be >= 1, got {dim_out}")
        if dim_in * dim_out > MAX_DIM_PRODUCT:
            raise DomainTooLargeError(
                f"dimension product {dim_in * dim_out} exceeds the cap {MAX_DIM_PRODUCT}"
            )
        if fld.size**dim_in > MAX_DOMAIN_POINTS:
            raise DomainTooLargeError("domain has too many points for exhaustive checking")
        if len(mapping) != fld.size**dim_in:
            raise PreconditionError(
                f"table has {len(mapping)} entries, needs all {fld.size ** dim_in} points"
            )
        for point, image in mapping.items():
            if len(point) != dim_in or len(image) != dim_out:
                raise PreconditionError("table entry with wrong arity")
        self.field = fld
        self.dim_in = dim_in
        self.dim_out = dim_out
        self.mapping = mapping

    def value(self, point):
        return self.mapping[point]


@lru_cache(maxsize=None)
def _lines_with_points(fld: Ring, dim: int):
    """Cached canonical line enumeration, each line paired with its points."""
    if not (fld.is_finite and fld.is_field):
        raise PreconditionError("line enumeration needs a finite field")
    if dim < 1:
        raise PreconditionError(f"dimension must be >= 1, got {dim}")
    if fld.size**dim > MAX_DOMAIN_POINTS:
        raise DomainTooLargeError("space has too many points for line enumeration")
    directions = []
    for v in _all_points(fld, dim):
        lead = next((i for i, c in enumerate(v) if not c.is_zero), None)
        if lead is not None and v[lead] == fld.one:
            # normalized representative of its projective class
            directions.append(v)
    lines = []
    seen = set()
    for direction in sorted(directions, key=_point_key):
        for start in _all_points(fld, dim):
            points = tuple(
                point_add(start, point_scale(r, direction)) for r in fld.elements()
            )
            base = min(points, key=_point_key)
            key = (_point_key(base), _point_key(direction))
            if key not in seen:
                seen.add(key)
                lines.append((Line(base, direction), points))
    return tuple(lines)


def enumerate_affine_lines(fld: Ring, dim: int) -> list[Line]:
    """Every affine line of F^dim exactly once.

    The canonical representative uses the normalized direction (first
    nonzero coordinate equal to 1, which is also the lexicographically
    least scalar multiple) and the lexicographically least point of the
    line as base.
    """
    return [line for line, _ in _lines_with_points(fld, dim)]


@dataclass
class HypothesisCheck:
    """Verdict of the line hypotheses, with the first line whose image is not a line."""

    ok: bool
    line: Line | None = None


def _image_is_line(images: set, fld: Ring) -> bool:
    """A set of codomain points is an affine line iff it has q points and
    is closed under the two-point parametrization lx + (1-l)y."""
    if len(images) != fld.size:
        return False
    ordered = sorted(images, key=_point_key)
    x, y = ordered[0], ordered[1]
    spanned = set()
    for lam in fld.elements():
        one_minus = fld.one - lam
        spanned.add(point_add(point_scale(lam, x), point_scale(one_minus, y)))
    return spanned == images


def check_hypotheses(f: VectorMapTable) -> HypothesisCheck:
    """Verify that f maps every affine line onto an affine line and that
    f(v) avoids f(l) whenever v avoids l.

    The second hypothesis follows from the first (see the module
    docstring): every image having q distinct points makes f injective,
    and then f(v) = f(w) with w on l forces v = w, so v lies on l.  Only
    the line images are therefore scanned, in canonical line order.
    """
    fld = f.field
    for line, points in _lines_with_points(fld, f.dim_in):
        images = {f.value(p) for p in points}
        if not _image_is_line(images, fld):
            return HypothesisCheck(False, line)
    return HypothesisCheck(True)


@dataclass
class SemilinearCert:
    """Decomposition f(v) = offset + sum_i tau(v_i) * basis_images[i]."""

    field: Ring
    dim_in: int
    dim_out: int
    tau_power: int
    basis_images: tuple
    offset: tuple

    def apply(self, point) -> tuple:
        fld = self.field
        p = fld.characteristic
        image = self.offset
        for coord, col in zip(point, self.basis_images):
            scaled = point_scale(coord ** (p**self.tau_power), col)
            image = point_add(image, scaled)
        return image


@dataclass
class AutomorphismId:
    """Either the Frobenius power matching a scalar table, or the first
    violated field-automorphism law with its witness pair."""

    frobenius_power: int | None
    failed_law: str | None = None
    witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.frobenius_power is not None


def identify_automorphism(tau_table: dict) -> AutomorphismId:
    """Match a total map F -> F against the powers of Frobenius.

    Checks bijectivity first, then additivity and multiplicativity over
    all pairs in encoding order; a table passing all three is a field
    automorphism and therefore some x -> x^(p^j).
    """
    if not tau_table:
        raise PreconditionError("empty scalar table")
    fld = next(iter(tau_table)).ring
    if not (fld.is_finite and fld.is_field):
        raise PreconditionError("automorphism identification needs a finite field")
    elems = fld.elements()
    if len(tau_table) != fld.size or any(x not in tau_table for x in elems):
        raise PreconditionError("scalar table must be total on the field")
    if len({tau_table[x] for x in elems}) != fld.size:
        dupes = {}
        for x in elems:
            y = tau_table[x]
            if y in dupes:
                return AutomorphismId(None, "bijectivity", (dupes[y], x))
            dupes[y] = x
    for x in elems:
        for y in elems:
            if tau_table[x + y] != tau_table[x] + tau_table[y]:
                return AutomorphismId(None, "additivity", (x, y))
    for x in elems:
        for y in elems:
            if tau_table[x * y] != tau_table[x] * tau_table[y]:
                return AutomorphismId(None, "multiplicativity", (x, y))
    p = fld.characteristic
    degree = 1
    size = fld.size
    while p**degree < size:
        degree += 1
    for j in range(degree):
        if all(tau_table[x] == x ** (p**j) for x in elems):
            return AutomorphismId(j)
    raise InconsistencyError("field automorphism matching no Frobenius power")


def recover_semilinear(f: VectorMapTable) -> SemilinearCert:
    """Extract the (tau, basis images, offset) decomposition of f.

    Requires the line hypotheses to hold.  The scalar action tau is read
    off the first axis, cross-validated against every other axis,
    verified to be a field automorphism, identified as a Frobenius power,
    and the full decomposition is re-checked on every point of the
    domain.  Any failure here signals a bug in the hypothesis check, so
    it raises instead of returning a certificate.
    """
    verdict = check_hypotheses(f)
    if not verdict.ok:
        raise PreconditionError("line hypotheses fail: line-image")
    fld = f.field
    origin = (fld.zero,) * f.dim_in
    offset = f.value(origin)

    def g(point):
        return tuple(a - b for a, b in zip(f.value(point), offset))

    def axis_point(axis, lam):
        return tuple(lam if i == axis else fld.zero for i in range(f.dim_in))

    def scalar_table(axis) -> dict:
        anchor = g(axis_point(axis, fld.one))
        lead = next(i for i, c in enumerate(anchor) if not c.is_zero)
        inv = fld.inverse(anchor[lead])
        table = {}
        for lam in fld.elements():
            image = g(axis_point(axis, lam))
            candidate = image[lead] * inv
            if image != point_scale(candidate, anchor):
                raise InconsistencyError(
                    f"image of axis {axis + 1} is not a scalar multiple of its anchor"
                )
            table[lam] = candidate
        return table

    tau = scalar_table(0)
    for axis in range(1, f.dim_in):
        if scalar_table(axis) != tau:
            raise InconsistencyError("scalar action differs between axes")
    ident = identify_automorphism(tau)
    if not ident.ok:
        raise InconsistencyError(
            f"extracted scalar action violates {ident.failed_law} at {ident.witness}"
        )
    basis_images = tuple(g(axis_point(axis, fld.one)) for axis in range(f.dim_in))
    cert = SemilinearCert(
        fld, f.dim_in, f.dim_out, ident.frobenius_power, basis_images, offset
    )
    for point in _all_points(fld, f.dim_in):
        if cert.apply(point) != f.value(point):
            raise InconsistencyError("semilinear decomposition fails pointwise")
    return cert
