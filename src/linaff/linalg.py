"""Exact dense linear algebra over the supported rings.

Matrices are plain lists of rows of RingElem.  `rref` is the one echelon
reduction over a field.  `kernel_vector` decides whether a homogeneous
system forces its unknowns to zero, and returns a nonzero solution when
it does not.  Over Z/m it works modulo each prime p | m: the system has
only the zero solution iff it has full column rank mod every such p
(McCoy, "Remarks on divisors of zero", 1942, with the Chinese remainder
theorem).
"""

from __future__ import annotations

from .errors import PreconditionError
from .rings import PrimeField, Ring, RingElem


def rref(rows, cols: int, ring: Ring):
    """Reduced row echelon form over a field: (matrix, pivot columns)."""
    if not ring.is_field:
        raise PreconditionError("echelon reduction needs a field")
    m = [row[:] for row in rows]
    pivots = []
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
    return m, pivots


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
    reduced, pivots = rref(rows, cols, ring)
    # the pivot columns ascend, so the first free column is the first gap
    free = next((c for c, pc in enumerate(pivots) if c != pc), len(pivots))
    if free == cols:
        return None
    vec = [ring.zero] * cols
    vec[free] = ring.one
    for r, pc in enumerate(pivots):
        vec[pc] = -reduced[r][free]
    return vec
