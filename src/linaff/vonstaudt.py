"""Semilinear recovery for line-preserving maps between small vector spaces.

A map f : F^d -> F^e given by an exhaustive table satisfies the line
hypotheses when it carries every affine line onto an affine line and
separates points from lines they avoid (f(v) not in f(l) whenever v is
not on l).  Over a finite field the first hypothesis implies the second:
a line image with all q points makes f injective on the line, any two
points of F^d lie on a common line, so f is injective, and f(v) in f(l)
would put a second preimage of f(v) on l.

The verdict is decided by decomposing f.  By the fundamental theorem of
affine geometry, in the form that does not assume f bijective, a map
satisfying the hypotheses is v -> c + A tau(v), with tau a power of the
Frobenius automorphism and A injective.  Conversely such a map carries
the line b + F*v onto the line f(b) + F*A tau(v), because tau is onto,
so a decomposition with A of rank d that matches f at every point proves
the hypotheses.  Only when f has no such decomposition are the lines
scanned, in canonical order, to name the first one whose image is not a
line.  Both passes run on element codes.

Everything here is exhaustive, so the domains are capped at desk scale:
|F| in 3..9 and d*e <= 6.  F_2 is rejected because the separation
argument needs a third scalar.

Over a prime field the Frobenius power is always 0, since F_p has no
automorphism but the identity; the same collapse happens over any field
with a trivial automorphism group (the rationals, the reals, the p-adic
fields), which are beyond table oracles and noted here only for context.
"""

from __future__ import annotations

from itertools import product

from .errors import (
    DomainTooLargeError,
    InconsistencyError,
    MissingPointError,
    PreconditionError,
)
from .multiaffine import Line, _checked_index, _key_index, line_indices, vector_line
from .rings import Record, Ring, RingElem, format_elements, frobenius

MAX_FIELD_SIZE = 9
MAX_DIM_PRODUCT = 6
MAX_DOMAIN_POINTS = 10_000


def _elements(fld: Ring, codes) -> tuple:
    return tuple(RingElem(fld, c) for c in codes)


def _check_table_shape(fld: Ring, dim_in: int, dim_out: int, entries: int):
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
    if entries != fld.size**dim_in:
        raise PreconditionError(
            f"table has {entries} entries, needs all {fld.size ** dim_in} points"
        )


class VectorMapTable(Record):
    """Exhaustive table of a map F_q^d -> F_q^e over a finite field, q > 2.

    The images are stored as one flat list `codes` of tuples of element
    codes, position i holding the image of the point with `point_index`
    i, as in `TableOracle`.  `from_codes` takes that list, as the
    table-file parser does; the dict constructor checks every key and
    image, as `TableOracle`'s does, and converts its dict to it.  Like
    `TableOracle`, the table is an immutable record, equal by its fields
    and unhashable.
    """

    __slots__ = ("field", "dim_in", "dim_out", "codes")

    def __init__(self, fld: Ring, dim_in: int, dim_out: int, mapping: dict):
        _check_table_shape(fld, dim_in, dim_out, len(mapping))
        codes = [None] * len(mapping)  # q^d distinct points fill every index
        for point, image in mapping.items():
            index = _key_index(fld, dim_in, point)
            if _checked_index(fld, dim_out, image) is None:
                raise PreconditionError(
                    f"table image {image!r} is not in {fld.spec_text()}^{dim_out}"
                )
            codes[index] = tuple(c.value for c in image)
        super().__init__(fld, dim_in, dim_out, codes)

    @classmethod
    def from_codes(cls, fld: Ring, dim_in: int, dim_out: int, codes: list) -> "VectorMapTable":
        """The table whose image of the point with `point_index` i has codes codes[i]."""
        _check_table_shape(fld, dim_in, dim_out, len(codes))
        if any(len(image) != dim_out for image in codes):
            raise PreconditionError("table entry with wrong arity")
        if any(not 0 <= c < fld.size for image in codes for c in image):
            raise PreconditionError(f"table image code out of range for {fld.spec_text()}")
        table = cls.__new__(cls)
        Record.__init__(table, fld, dim_in, dim_out, codes)
        return table

    def value(self, point) -> tuple:
        index = _checked_index(self.field, self.dim_in, point)
        if index is None:
            raise MissingPointError(f"no table entry for point {format_elements(point)}")
        return _elements(self.field, self.codes[index])

    @property
    def mapping(self) -> dict:
        """The table as a point -> image dict, in point-index order."""
        points = product(self.field.elements(), repeat=self.dim_in)
        return {p: _elements(self.field, image) for p, image in zip(points, self.codes)}


def _lines_with_points(fld: Ring, dim: int):
    """The canonical line enumeration, lazily: each line with the
    `point_index` of its points, the parameter running in code order.

    Directions come normalized (first nonzero code 1) in lexicographic
    order.  The lines of a direction partition the space, and each has
    exactly one point whose code is 0 at the direction's leading
    coordinate, its least point, which serves as the base; the bases run
    in lexicographic order.
    """
    if not (fld.is_finite and fld.is_field):
        raise PreconditionError("line enumeration needs a finite field")
    if dim < 1:
        raise PreconditionError(f"dimension must be >= 1, got {dim}")
    if fld.size**dim > MAX_DOMAIN_POINTS:
        raise DomainTooLargeError("space has too many points for line enumeration")
    vectors = list(product(range(fld.size), repeat=dim))  # code tuples, lexicographic
    for direction in vectors:
        lead = next((i for i, c in enumerate(direction) if c), None)
        if lead is None or direction[lead] != 1:
            continue
        line_dir = _elements(fld, direction)
        for base in vectors:
            if base[lead] == 0:
                yield Line(_elements(fld, base), line_dir), line_indices(fld, base, direction)


def enumerate_affine_lines(fld: Ring, dim: int) -> list[Line]:
    """Every affine line of F^dim exactly once.

    The canonical representative uses the normalized direction (first
    nonzero coordinate equal to 1, which is also the lexicographically
    least scalar multiple) and the lexicographically least point of the
    line as base.
    """
    return [line for line, _ in _lines_with_points(fld, dim)]


class HypothesisCheck(Record):
    """Verdict of the line hypotheses, with the first line whose image is not a line."""

    __slots__ = ("ok", "line")

    def __init__(self, ok: bool, line: Line | None = None):
        super().__init__(ok, line)

    def document(self) -> list[tuple[str, str]]:
        if self.ok:
            return [("status", "ok")]
        return [("status", "violation"), ("witness", f"line-image {self.line.text()}")]


def _first_violation(f: VectorMapTable) -> Line | None:
    """The first line, in canonical order, whose image is not a line: q
    points closed under y + l(x - y), x and y the two least of them."""
    fld, codes = f.field, f.codes
    for line, indices in _lines_with_points(fld, f.dim_in):
        images = {codes[i] for i in indices}
        if len(images) != fld.size:
            return line
        x, y = sorted(images)[:2]
        if set(vector_line(fld, y, tuple(map(fld.sub, x, y)))) != images:
            return line
    return None


def check_hypotheses(f: VectorMapTable) -> HypothesisCheck:
    """Verify that f maps every affine line onto an affine line and that
    f(v) avoids f(l) whenever v avoids l, which follows (module docstring).

    The verdict is ok when f decomposes as c + A tau(v) with A injective.
    Otherwise the witness is the first line, in canonical order, whose
    image is not a line; if there is none, the verdict is ok.
    """
    if _decompose(f) is not None:
        return HypothesisCheck(True)
    line = _first_violation(f)
    return HypothesisCheck(line is None, line)


class SemilinearCert(Record):
    """Decomposition f(v) = offset + sum_i tau(v_i) * basis_images[i]."""

    __slots__ = ("tau_power", "basis_images", "offset")

    def document(self) -> list[tuple[str, str]]:
        return [
            ("status", "semilinear"),
            ("tau", f"frobenius^{self.tau_power}"),
            ("offset", format_elements(self.offset)),
            ("basis_images", " ; ".join(format_elements(col) for col in self.basis_images)),
        ]

    def apply(self, point) -> tuple:
        image = self.offset
        for coord, col in zip(point, self.basis_images):
            t = frobenius(coord, self.tau_power)
            image = tuple(y + t * x for y, x in zip(image, col))
        return image


def _decompose(f: VectorMapTable) -> SemilinearCert | None:
    """The decomposition f(v) = c + A tau(v) with A of rank d, or None.

    c is f(0) and the columns of A are the basis images f(e_i) - c.  tau
    is the Frobenius power that matches f along the first axis, where
    f(r e_1) = c + tau(r) A e_1; the candidate is then compared with f at
    every point, on codes.  Where the candidate matches, f is injective
    exactly when A is, because tau is a bijection, so "A has rank d" is
    tested, first since it is cheap, as "f takes q^d distinct values".
    """
    fld, d, q, codes = f.field, f.dim_in, f.field.size, f.codes
    if len(set(codes)) != len(codes):
        return None
    offset = codes[0]
    cols = [tuple(map(fld.sub, codes[q ** (d - 1 - i)], offset)) for i in range(d)]
    first_axis = vector_line(fld, offset, cols[0])
    along = [codes[r * q ** (d - 1)] for r in range(q)]
    power, tau = 0, range(q)
    while [first_axis[t] for t in tau] != along:
        power += 1
        if fld.characteristic**power >= q:
            return None
        tau = [frobenius(x, power).value for x in fld.elements()]
    # the candidate at every point in index order: axis by axis, each value
    # v becomes v + tau(r) * col for r in code order
    want = [offset]
    for col in cols:
        lines = [vector_line(fld, v, col) for v in want]
        want = [line[t] for line in lines for t in tau]
    if want != codes:
        return None
    basis_images = tuple(_elements(fld, col) for col in cols)
    return SemilinearCert(power, basis_images, _elements(fld, offset))


def recover_semilinear(f: VectorMapTable) -> SemilinearCert:
    """Extract the (tau, basis images, offset) decomposition of f.

    Without one, the line scan names a violation and this raises
    PreconditionError; a scan that finds none would contradict the
    fundamental theorem, and raises InconsistencyError.
    """
    cert = _decompose(f)
    if cert is not None:
        return cert
    if _first_violation(f) is not None:
        raise PreconditionError("line hypotheses fail: line-image")
    raise InconsistencyError("every line image is a line, yet f has no semilinear decomposition")
