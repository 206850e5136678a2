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

A table is bounded by its input, as a `TableOracle` is: any finite field
with more than two elements (F_2 is rejected because the separation
argument needs a third scalar), d in 2..16 and any e.  The decomposition
decides every such table in O(q^d * e).  The one exhaustive pass is the
line scan, over q^(d-1) (q^d - 1)/(q - 1) lines of q points, and only
it is capped: at MAX_LINE_POINTS, the points on the lines of GF(4)^6.
A full scan (every line read) of GF(4)^6 -> GF(4)^6 takes 12-15 s on a
2-core Xeon under Python 3.11, the slowest table measured under the cap:
F_3^7 takes 10 s, GF(9)^4 6 s and F_173^2 4 s.

Over a prime field the Frobenius power is always 0, since F_p has no
automorphism but the identity; the same collapse happens over any field
with a trivial automorphism group (the rationals, the reals, the p-adic
fields), which are beyond table oracles and noted here only for context.
"""

from __future__ import annotations

from functools import reduce
from itertools import product

from .errors import DomainTooLargeError, InconsistencyError, MissingPointError, PreconditionError
from .multiaffine import MAX_ARITY, Line, _checked_index, _key_index, vector_line
from .rings import Record, Ring, RingElem, format_elements, frobenius

MAX_LINE_POINTS = 4 * 1_397_760  # the 1,397,760 lines of GF(4)^6, 4 points each


def _elements(fld: Ring, codes) -> tuple:
    return tuple(RingElem(fld, c) for c in codes)


def _check_table_shape(fld: Ring, dim_in: int, dim_out: int, entries: int):
    if not (fld.is_finite and fld.is_field):
        raise PreconditionError("vector map tables need a finite field")
    if fld.size <= 2:
        raise PreconditionError("the field must have more than two elements")
    if not 2 <= dim_in <= MAX_ARITY:
        raise PreconditionError(f"domain dimension must be in 2..{MAX_ARITY}, got {dim_in}")
    if dim_out < 1:
        raise PreconditionError(f"codomain dimension must be >= 1, got {dim_out}")
    if entries != fld.size**dim_in:
        raise PreconditionError(f"table has {entries} entries, needs all {fld.size**dim_in} points")


class VectorMapTable(Record):
    """Exhaustive table of a map F_q^d -> F_q^e over a finite field, q > 2.

    The images are stored as one flat list `codes` of tuples of element
    codes, position i holding the image of the point with `point_index`
    i, as in `TableOracle`.  `from_codes` takes that list, checked, and
    `_of_codes` as the table-file parser builds it; the dict constructor
    checks every key and image, as `TableOracle`'s does, and converts its
    dict to it.  Like `TableOracle`, the table is an immutable record,
    equal by its fields and unhashable.
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
        table = cls._of_codes(fld, dim_in, dim_out, codes)
        if set(map(len, codes)) != {dim_out}:
            raise PreconditionError("table entry with wrong arity")
        if min(map(min, codes)) < 0 or max(map(max, codes)) >= fld.size:
            raise PreconditionError(f"table image code out of range for {fld.spec_text()}")
        return table

    @classmethod
    def _of_codes(cls, fld: Ring, dim_in: int, dim_out: int, codes: list) -> "VectorMapTable":
        """`from_codes` for images of dim_out codes in range, as the parser builds them."""
        _check_table_shape(fld, dim_in, dim_out, len(codes))
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
    """The canonical line enumeration, lazily: the codes of each line's base
    and direction, with an iterator over the `point_index` of its points,
    the parameter running in code order.

    Directions come normalized (first nonzero code 1) in lexicographic
    order.  A line's base is its least point, the one with code 0 at the
    direction's lead; the bases run in lexicographic order.  An index sums
    the weighted `fld.line` rows of the base's codes.  A space whose lines
    hold more than MAX_LINE_POINTS points in all raises DomainTooLargeError.
    """
    if not (fld.is_finite and fld.is_field):
        raise PreconditionError("line enumeration needs a finite field")
    if dim < 1:
        raise PreconditionError(f"dimension must be >= 1, got {dim}")
    q = fld.size
    lines = q ** (dim - 1) * (q**dim - 1) // (q - 1)
    if lines * q > MAX_LINE_POINTS:
        raise DomainTooLargeError(
            f"dimension {dim} over {fld.spec_text()} has {lines:,} lines of {q:,} points, "
            f"{lines * q:,} in all; the line scan is capped at {MAX_LINE_POINTS:,} points"
        )
    weights = [q**i for i in reversed(range(dim))]
    for lead in reversed(range(dim)):
        for tail in product(range(q), repeat=dim - 1 - lead):
            direction = (0,) * lead + (1,) + tail
            # rows[i][b]: coordinate i's weighted codes on the line whose base has code b there
            rows = [[range(0, q * w, w)] if i == lead else  # one row, base code 0, at the lead
                    [[c * w for c in fld.line(b, s)] for b in range(q)]
                    for i, (w, s) in enumerate(zip(weights, direction))]
            for base, picked in zip(product(*map(range, map(len, rows))), product(*rows)):
                yield base, direction, map(sum, zip(*picked))


def enumerate_affine_lines(fld: Ring, dim: int) -> list[Line]:
    """Every affine line of F^dim exactly once.

    The canonical representative uses the normalized direction (first
    nonzero coordinate equal to 1, which is also the lexicographically
    least scalar multiple) and the lexicographically least point of the
    line as base.
    """
    return [Line(_elements(fld, b), _elements(fld, d)) for b, d, _ in _lines_with_points(fld, dim)]


class HypothesisCheck(Record):
    """Verdict of the line hypotheses, with the first line whose image is not a line."""

    __slots__ = ("ok", "line")

    def __init__(self, ok: bool, line: Line | None = None):
        super().__init__(ok, line)

    def document(self) -> list[tuple[str, str]]:
        if self.ok:
            return [("status", "ok")]
        return [("status", "violation"), ("witness", f"line-image {self.line.text()}")]


def _first_violation(f: VectorMapTable) -> Line:
    """The first line, in canonical order, whose image is not a line, that is,
    not x + F(y - x) for the images x != y of its first two points.  f has no
    decomposition, so a scan that finds none raises InconsistencyError.
    """
    fld, codes = f.field, f.codes
    for base, direction, indices in _lines_with_points(fld, f.dim_in):
        images = [codes[i] for i in indices]
        x, y = images[:2]
        if x != y and set(vector_line(fld, x, tuple(map(fld.sub, y, x)))) == set(images):
            continue
        return Line(_elements(fld, base), _elements(fld, direction))
    raise InconsistencyError("every line image is a line, yet f has no semilinear decomposition")


def check_hypotheses(f: VectorMapTable) -> HypothesisCheck:
    """Verify that f maps every affine line onto an affine line and that
    f(v) avoids f(l) whenever v avoids l, which follows (module docstring).

    The verdict is ok when f decomposes as c + A tau(v) with A injective.
    Otherwise the witness is the first line, in canonical order, whose
    image is not a line; if there is none, which the theorem rules out,
    InconsistencyError is raised.  The scan raises DomainTooLargeError on
    a space whose lines hold more than MAX_LINE_POINTS points.
    """
    if _decompose(f) is not None:
        return HypothesisCheck(True)
    return HypothesisCheck(False, _first_violation(f))


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
        if power == 1:  # x -> x^p on codes; each further power composes it
            frob = [reduce(fld.mul, [x] * fld.characteristic) for x in tau]
        tau = [frob[t] for t in tau]
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

    Without one, this raises PreconditionError naming the violation the
    line scan finds; a scan that finds none would contradict the
    fundamental theorem, and raises InconsistencyError.
    """
    cert = _decompose(f)
    if cert is None:
        raise PreconditionError(f"line hypotheses fail: line-image {_first_violation(f).text()}")
    return cert
