"""Shared helpers for the test suite: random generators and brute oracles."""

import functools
import math
from fractions import Fraction
from itertools import combinations, permutations, product

from linaff import (
    Affine,
    BhCandidate,
    BhReport,
    CannotCancel,
    CoefficientWitness,
    HypothesisCheck,
    GaloisField,
    Line,
    LineCheck,
    LineWitness,
    MultiAffinePoly,
    PreconditionError,
    TableOracle,
    Zmod,
    enumerate_affine_lines,
    factorial_det,
    parse_ring_spec,
    psi_extract,
    recover,
    verify_bh,
    verify_properties,
)
from linaff.bh_sets import Property2Failure
from linaff.multiaffine import mask_to_subset, unit_point, zero_point


def rand_elem(ring, rng):
    if ring.is_finite:
        return ring.element_from_encoding(rng.randrange(ring.size))
    return ring.elem(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def rand_nonzero(ring, rng):
    while True:
        e = rand_elem(ring, rng)
        if not e.is_zero:
            return e


def rand_poly(ring, n, rng, density=0.6):
    coeffs = {}
    for mask in range(1 << n):
        if rng.random() < density:
            coeffs[mask] = rand_elem(ring, rng)
    return MultiAffinePoly(ring, n, coeffs)


def rand_affine_poly(ring, n, rng):
    coeffs = {mask: rand_elem(ring, rng) for mask in [0] + [1 << i for i in range(n)]}
    return MultiAffinePoly(ring, n, coeffs)


def rand_nonaffine_poly(ring, n, rng):
    """Random polynomial with at least one nonzero coefficient of degree >= 2."""
    poly = rand_poly(ring, n, rng)
    high = [m for m in range(1 << n) if m.bit_count() >= 2]
    mask = rng.choice(high)
    coeffs = dict(poly.coeffs)
    coeffs[mask] = rand_nonzero(ring, rng)
    return MultiAffinePoly(ring, n, coeffs)


def all_points(ring, n):
    return list(product(ring.elements(), repeat=n))


def table_from_poly(poly) -> TableOracle:
    table = {pt: poly.value(pt) for pt in all_points(poly.ring, poly.arity)}
    return TableOracle(poly.ring, poly.arity, table)


def table_from_function(ring, n, func) -> TableOracle:
    return TableOracle(ring, n, {pt: func(pt) for pt in all_points(ring, n)})


def _bareiss_int_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix; exact."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def determinant(rows, ring):
    """Exact determinant of a square matrix: over Z/m, prime fields included,
    by fraction-free Bareiss elimination on the lifted integers, reduced;
    over the other fields by Gaussian elimination, the product of the
    pivots negated once per row swap."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise PreconditionError("determinant needs a square matrix")
    if isinstance(ring, Zmod):
        return ring.from_int(_bareiss_int_det([[e.value for e in row] for row in rows]))
    m = [row[:] for row in rows]
    det = ring.one
    for col in range(n):
        pivot = next((i for i in range(col, n) if not m[i][col].is_zero), None)
        if pivot is None:
            return ring.zero
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col]
        inv = ring.inverse(m[col][col])
        for i in range(col + 1, n):
            factor = m[i][col] * inv
            m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return det


def perm_determinant(rows, ring):
    """Independent determinant oracle: signed permutation expansion."""
    n = len(rows)
    total = ring.zero
    for perm in permutations(range(n)):
        term = ring.one
        for i in range(n):
            term = term * rows[i][perm[i]]
        inversions = sum(
            1 for a, b in combinations(range(n), 2) if perm[a] > perm[b]
        )
        total = total + (term if inversions % 2 == 0 else -term)
    return total


def identity_matrix(n, ring):
    return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


def mat_mul(a, b, ring):
    return [
        [sum((a[i][t] * b[t][j] for t in range(len(b))), ring.zero) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def adjugate(rows, ring):
    """adj(A) with adj(A)*A = det(A)*I, by cofactor expansion."""
    n = len(rows)
    adj = []
    for i in range(n):
        adj_row = []
        for j in range(n):
            minor = [[e for c, e in enumerate(row) if c != i] for r, row in enumerate(rows) if r != j]
            cof = determinant(minor, ring)
            adj_row.append(-cof if (i + j) % 2 else cof)
        adj.append(adj_row)
    return adj


def psi_by_inclusion_exclusion(f, base):
    """Independent extraction oracle: the alternating-sum formula, term by term."""
    ring, n = f.ring, f.arity
    coeffs = {}
    for mask in range(1 << n):
        acc = ring.zero
        sub = mask
        while True:
            point = tuple(
                base[i] + ring.one if sub >> i & 1 else base[i] for i in range(n)
            )
            term = f.value(point)
            if (mask.bit_count() - sub.bit_count()) % 2:
                term = -term
            acc = acc + term
            if sub == 0:
                break
            sub = (sub - 1) & mask
        coeffs[mask] = acc
    return {m: c for m, c in coeffs.items() if not c.is_zero}


def is_pointwise_affine(f) -> bool:
    """Brute oracle: does any affine function match f everywhere?

    The candidate is forced by the values at 0 and the basis vectors, so a
    single pass decides it.
    """
    ring, n = f.ring, f.arity
    zero = (ring.zero,) * n
    c0 = f.value(zero)
    cs = []
    for i in range(n):
        e_i = tuple(ring.one if j == i else ring.zero for j in range(n))
        cs.append(f.value(e_i) - c0)
    for pt in all_points(ring, n):
        want = c0
        for c, x in zip(cs, pt):
            want = want + c * x
        if f.value(pt) != want:
            return False
    return True


def verify_properties_pairwise(candidate) -> BhReport:
    """Reference for verify_properties: the lowest-h collision over every
    1 <= h <= n, and property (2) by comparing every pair of h-fold
    products, in lexicographic pair order.  A non-regular element is never
    reached: for |S| >= 3 it makes a*b - a*c non-regular at h = 2 first."""
    ring, n = candidate.ring, len(candidate)
    collisions = (verify_bh(candidate, h) for h in range(1, n + 1))
    collision = next(filter(None, collisions), None)
    for h in range(2, n):
        subsets = [tuple(candidate.elements[i] for i in c) for c in combinations(range(n), h)]
        prods = []
        for subset in subsets:
            acc = ring.one
            for e in subset:
                acc = acc * e
            prods.append(acc)
        for a, b in combinations(range(len(subsets)), 2):
            diff = prods[a] - prods[b]
            if not ring.is_regular(diff):
                return BhReport(collision, Property2Failure(h, subsets[a], subsets[b], diff))
    assert all(ring.is_regular(s) for s in candidate.elements), "non-regular element passed"
    return BhReport(collision, None)


def search_bh_reference(ring, n):
    """Reference for search_bh: the first n-subset of all the ring's
    elements, in lexicographic code order, passing verify_properties, or
    None; no bound, no filter and no budget."""
    for picks in combinations(ring.elements(), n):
        candidate = BhCandidate(ring, picks)
        if verify_properties(candidate).ok:
            return candidate
    return None


def separation_failure(f):
    """Reference for the separation hypothesis of check_hypotheses: the
    first (line, point) in canonical line order and point enumeration order
    with the point off the line and f(point) in f(line), or None."""
    fld = f.field
    points = all_points(fld, f.dim_in)
    for line in enumerate_affine_lines(fld, f.dim_in):
        on_line = {
            tuple(b + r * d for b, d in zip(line.base, line.dir)) for r in fld.elements()
        }
        images = {f.value(p) for p in on_line}
        for v in points:
            if v not in on_line and f.value(v) in images:
                return line, v
    return None


@functools.cache
def affine_lines_reference(fld, dim):
    """Reference for the canonical line order: (line, points) pairs, the
    directions normalized (first nonzero coordinate 1) in lexicographic
    order of their codes, and for each direction its lines in the order of
    their least points, the points in enumeration order of the parameter.
    A start point not on an earlier line of its direction is the least
    point of its own line, because the starts run in lexicographic order."""
    points = all_points(fld, dim)
    lines = []
    for direction in points:
        if next((c for c in direction if not c.is_zero), None) != fld.one:
            continue
        covered = set()
        for start in points:
            if start not in covered:
                on_line = tuple(
                    tuple(b + r * d for b, d in zip(start, direction)) for r in fld.elements()
                )
                covered.update(on_line)
                lines.append((Line(start, direction), on_line))
    return lines


def check_hypotheses_reference(f):
    """Reference for check_hypotheses: the scan-only verdict on RingElem
    arithmetic.  Every line is walked in canonical order; the first whose
    image is not a line (q points closed under l*x + (1 - l)*y, with x, y
    its two least points) is the witness, and with none the verdict is ok."""
    fld, mapping = f.field, f.mapping
    for line, on_line in affine_lines_reference(fld, f.dim_in):
        images = {mapping[p] for p in on_line}
        if len(images) != fld.size:
            return HypothesisCheck(False, line)
        x, y = sorted(images, key=lambda image: tuple(c.value for c in image))[:2]
        spanned = {
            tuple(lam * a + (fld.one - lam) * b for a, b in zip(x, y)) for lam in fld.elements()
        }
        if spanned != images:
            return HypothesisCheck(False, line)
    return HypothesisCheck(True)


def line_check_reference(f, line):
    """Reference for line_affine_check on a table, on RingElem point
    arithmetic: the value at base + r*dir for every element r in code
    order, against f(base) + slope*r with slope f(base + dir) - f(base)."""
    ring = f.ring
    f0 = f.value(line.base)
    slope = f.value(tuple(b + d for b, d in zip(line.base, line.dir))) - f0
    for r in ring.elements():
        if f.value(tuple(b + r * d for b, d in zip(line.base, line.dir))) != f0 + slope * r:
            return LineCheck(None, (ring.zero, ring.one, r))
    return LineCheck(slope, None)


def coordinate_line_failure_reference(f):
    """Reference for recover's coordinate-line scan on element codes: every
    line parallel to a basis vector, checked with RingElem arithmetic by
    line_check_reference, in the same order; the first failure's certificate."""
    ring, n = f.ring, f.arity
    elems = ring.elements()
    for axis in range(1, n + 1):
        e_axis = unit_point(ring, n, axis)
        for rest in product(elems, repeat=n - 1):
            base = list(rest[: axis - 1]) + [ring.zero] + list(rest[axis - 1 :])
            line = Line(tuple(base), e_axis)
            check = line_check_reference(f, line)
            if not check.ok:
                return LineWitness(line, check.witness)
    return None


def recover_reference(f, dirs, mode="exhaustive"):
    """Reference for recover on a table, on the RingElem path.

    Each radial line is checked on the table's own values: at every ring
    element by line_check_reference in exhaustive mode, at t = 2..n in proof
    mode.  A table that passes the reference coordinate-line scan equals
    its hypercube interpolant psi at every point (induction on the arity),
    so the rest of the pipeline must answer as it does for the polynomial
    psi, whose affine check compares coefficients instead of table codes.
    """
    failure = coordinate_line_failure_reference(f)
    if failure is not None:
        return failure
    ring, n = f.ring, f.arity
    origin = zero_point(ring, n)
    for v in dirs.dirs:
        line = Line(origin, v)
        if mode == "exhaustive":
            witness = line_check_reference(f, line).witness
        else:
            f0 = f.value(origin)
            slope = f.value(v) - f0
            witness = None
            for t in range(2, n + 1):
                r = ring.from_int(t)
                if f.value(tuple(r * c for c in v)) != f0 + slope * r:
                    witness = (ring.zero, ring.one, r)
                    break
        if witness is not None:
            return LineWitness(line, witness)
    return recover(psi_extract(f), dirs, mode)


def restrict_radial_reference(poly, v):
    """Reference for restrict_radial: b_0..b_n of r -> poly(r*v), each
    monomial a_J prod_{j in J} v_j formed in RingElem arithmetic."""
    ring, n = poly.ring, poly.arity
    b = [ring.zero] * (n + 1)
    for mask, c in poly.coeffs.items():
        for i in range(n):
            if mask >> i & 1:
                c = c * v[i]
        b[mask.bit_count()] = b[mask.bit_count()] + c
    return b


def recover_poly_reference(poly, dirs, mode="exhaustive"):
    """Reference for recover on a polynomial, on the RingElem path: every
    direction's full restriction b_0..b_n is built and checked, at every
    element by restriction_check_reference, or in proof mode over a finite
    ring by Horner at t = 2..n against b_0 + slope*t.  Then proof mode's
    factorial determinant, and the first coefficient of degree >= 2: hidden
    by the ring if some radial restriction has a nonzero coefficient of
    its degree, else the witness; with none, psi's affine coefficients."""
    ring, n = poly.ring, poly.arity
    radials = [restrict_radial_reference(poly, v) for v in dirs.dirs]
    for v, b in zip(dirs.dirs, radials):
        if mode == "proof" and ring.is_finite:
            slope = sum(b[2:], b[1])
            witness = None
            for t in range(2, n + 1):
                r = ring.from_int(t)
                acc = ring.zero
                for c in reversed(b):
                    acc = acc * r + c
                if acc != b[0] + slope * r:
                    witness = (ring.zero, ring.one, r)
                    break
        else:
            witness = restriction_check_reference(ring, b).witness
        if witness is not None:
            return LineWitness(Line(zero_point(ring, n), v), witness)
    fac_det = factorial_det(n, ring)
    if mode == "proof" and not ring.is_regular(fac_det):
        hidden = (k for k in range(2, n + 1) if any(not b[k].is_zero for b in radials))
        return CannotCancel(next(hidden, 2), fac_det)
    survivor = next(((m, c) for m, c in poly.terms() if m.bit_count() >= 2), None)
    if survivor is None:
        return Affine(poly.coeff(0), tuple(poly.coeff(1 << i) for i in range(n)))
    mask, value = survivor
    k = mask.bit_count()
    if any(not b[k].is_zero for b in radials):
        return CannotCancel(k, fac_det)
    return CoefficientWitness(k, mask_to_subset(mask), value)


def rand_null_codes(ring, length, rng):
    """Codes of a random polynomial with `length` coefficients that is zero
    at every element of a finite ring, a random combination of generators:
    over GF(q) the multiples r^e (r^q - r); over Z/m, prime fields included,
    the falling factorials (r)_j = r(r-1)...(r-j+1), each scaled by
    m / gcd(m, j!) (the product of j consecutive integers is divisible by j!)."""
    q = ring.size
    if isinstance(ring, GaloisField):
        gens = [[0] * (e + 1) + [ring.neg(1)] + [0] * (q - 2) + [1] for e in range(length - q)]
    else:
        gens, falling = [], [1]
        for j in range(length):
            scale = q // math.gcd(q, math.factorial(j))
            gens.append([scale * c % q for c in falling])
            falling = [(a - j * b) % q for a, b in zip([0] + falling, falling + [0])]
    out = [0] * length
    for gen in gens:
        t = rng.randrange(q)
        for k, c in enumerate(gen):
            out[k] = ring.add(out[k], ring.mul(t, c))
    return out


def restriction_check_reference(ring, b):
    """Reference for restriction_check with its default parameters: g(r) =
    sum_k b_k r^k, summed term by term in RingElem arithmetic, against
    b_0 + slope*r at every element of a finite ring in code order.  Over Q
    a line with b_k = 0 for every k >= 2 is affine; any other is compared at
    t = 2..n+2, where a nonzero residual of degree <= n vanishing at 0 and 1
    cannot vanish everywhere."""
    slope = sum(b[2:], b[1])
    if ring.is_finite:
        params = ring.elements()
    elif all(c.is_zero for c in b[2:]):
        return LineCheck(slope, None)
    else:
        params = [ring.from_int(t) for t in range(2, len(b) + 2)]
    for r in params:
        g = sum((c * r**k for k, c in enumerate(b)), ring.zero)
        if g != b[0] + slope * r:
            return LineCheck(None, (ring.zero, ring.one, r))
    return LineCheck(slope, None)


def factorial_vandermonde(n, ring):
    """The n x n matrix with row i = (i, i^2, ..., i^n), entries taken in the ring."""
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    rows = []
    for i in range(1, n + 1):
        rows.append([ring.from_int(i**k) for k in range(1, n + 1)])
    return rows


def characteristic_regular_upto(ring, n) -> bool:
    """True iff the images of 1, 1+1, ..., n*1 in the ring are all regular."""
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    acc = ring.zero
    for _ in range(n):
        acc = acc + ring.one
        if not ring.is_regular(acc):
            return False
    return True


def field_tables_schoolbook(p, k, modulus):
    """Reference for rings._field_tables: every sum and every product of two
    digit vectors formed as polynomials over F_p, reduced by the monic
    modulus t^k + modulus; returns the (add, mul, neg) tables on codes."""
    digits = [[c // p**i % p for i in range(k)] for c in range(p**k)]

    def code(poly) -> int:
        return sum(d % p * p**i for i, d in enumerate(poly))

    def product(a, b) -> int:
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):
            for j, c in enumerate(modulus):
                prod[i - k + j] -= prod[i] * c
        return code(prod[:k])

    return (
        [[code(x + y for x, y in zip(a, b)) for b in digits] for a in digits],
        [[product(a, b) for b in digits] for a in digits],
        [code(-x for x in a) for a in digits],
    )


def read_map_codes(text):
    """Reference reader for a valid map table: its values in point-index order.

    Reads line by line with no shortcut: `#` starts a comment, blank lines
    are skipped, a directive sets its header field wherever it stands, and
    each row `map x_1 .. x_n -> y_1 .. y_e` is read with int().  Scalar
    values are codes, vector values tuples of codes.
    """
    header, table = {}, {}
    for line in text.splitlines():
        toks = line.split("#")[0].split()
        if not toks:
            continue
        if toks[0] == "map":
            sep = toks.index("->")
            table[tuple(map(int, toks[1:sep]))] = tuple(map(int, toks[sep + 1 :]))
        else:
            header[toks[0]] = toks[1:]
    size = parse_ring_spec(" ".join(header["ring"])).size
    points = product(range(size), repeat=int(header["arity"][0]))
    if header.get("codomain", ["scalar"]) == ["scalar"]:
        return [table[point][0] for point in points]
    return [table[point] for point in points]
