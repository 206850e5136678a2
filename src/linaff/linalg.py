"""Exact dense linear algebra over the supported rings.

Matrices are plain lists of rows of RingElem.  Determinants over Z/m,
prime fields included, are computed by lifting to the integers
(fraction-free Bareiss elimination) and reducing, so no division inside
the ring is ever needed; over the other fields the one echelon reduction
`rref` tracks them.  `kernel_vector` decides whether a homogeneous
system forces its unknowns to zero, and returns a nonzero solution when
it does not.  Over Z/m it works modulo each prime p | m: the system has
only the zero solution iff it has full column rank mod every such p
(McCoy, "Remarks on divisors of zero", 1942, with the Chinese remainder
theorem).
"""

from __future__ import annotations

from .errors import PreconditionError
from .rings import PrimeField, Ring, RingElem, Zmod


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


def determinant(rows, ring: Ring) -> RingElem:
    """Exact determinant of a square matrix over any supported ring."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise PreconditionError("determinant needs a square matrix")
    if isinstance(ring, Zmod):
        lifted = [[e.value for e in row] for row in rows]
        return ring.from_int(_bareiss_int_det(lifted))
    return rref(rows, n, ring)[2]


def rref(rows, cols: int, ring: Ring):
    """Reduced row echelon form over a field.

    Returns (matrix, pivot columns, det), where det is the determinant
    when the matrix is square: the product of the pivots, negated once
    per row swap, and zero if some row gets no pivot.
    """
    if not ring.is_field:
        raise PreconditionError("echelon reduction needs a field")
    m = [row[:] for row in rows]
    pivots = []
    det = ring.one
    r = 0
    for col in range(cols):
        pivot = None
        for i in range(r, len(m)):
            if not m[i][col].is_zero:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            det = -det
        det = det * m[r][col]
        inv = ring.inverse(m[r][col])
        m[r] = [e * inv for e in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][col].is_zero:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots, det if r == len(m) else ring.zero


def kernel_vector(rows, cols: int, ring: Ring) -> list[RingElem] | None:
    """A nonzero solution of rows * x = 0, x with `cols` entries, or None
    when x = 0 is the only one.

    Over a field it is the reduced-echelon kernel vector of the first free
    column (that variable set to 1, the other free ones to 0), which is
    unique because the reduced echelon form is.  Over Z/m it is that
    vector v modulo the least prime p | m for which one exists, lifted to
    (m/p) v: rows * x = 0 forces x = 0 iff the system has full column
    rank modulo every such p (McCoy, with the CRT).
    """
    if not ring.is_field:
        for p in ring.primes:
            fp = PrimeField(p)
            vec = kernel_vector([[fp.from_int(e.value) for e in row] for row in rows], cols, fp)
            if vec is not None:
                return [ring.from_int(ring.m // p * e.value) for e in vec]
        return None
    reduced, pivots, _ = rref(rows, cols, ring)
    # the pivot columns ascend, so the first free column is the first gap
    free = next((c for c, pc in enumerate(pivots) if c != pc), len(pivots))
    if free == cols:
        return None
    vec = [ring.zero] * cols
    vec[free] = ring.one
    for r, pc in enumerate(pivots):
        vec[pc] = -reduced[r][free]
    return vec
