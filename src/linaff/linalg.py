"""Exact dense linear algebra over the supported rings.

`rref` is the one echelon reduction over a field; its matrices are lists
of rows of element values, reduced through the ring's value-level
operations.  `kernel_vector` decides whether a homogeneous system of
RingElem rows forces its unknowns to zero, and returns a nonzero solution
when it does not.  Over Z/m it reduces the codes modulo each prime p | m:
the system has only the zero solution iff it has full column rank mod
every such p (McCoy, "Remarks on divisors of zero", 1942, with the
Chinese remainder theorem).
"""

from __future__ import annotations

from .errors import PreconditionError
from .rings import PrimeField, Ring, RingElem


def rref(rows, cols: int, ring: Ring):
    """Reduced row echelon form over a field, on values: (matrix, pivot columns)."""
    if not ring.is_field:
        raise PreconditionError("echelon reduction needs a field")
    add, mul, neg = ring.add, ring.mul, ring.neg
    m = [row[:] for row in rows]
    pivots = []
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ring.inverse(RingElem(ring, m[r][col])).value
        m[r] = [mul(e, inv) for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                factor = neg(m[i][col])
                m[i] = [add(a, mul(factor, b)) for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
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
    values = [[e.value for e in row] for row in rows]
    for fld in [ring] if ring.is_field else map(PrimeField, ring.primes):
        projected = values if fld is ring else [[x % fld.p for x in row] for row in values]
        reduced, pivots = rref(projected, cols, fld)
        # the pivot columns ascend, so the first free column is the first gap
        free = next((c for c, pc in enumerate(pivots) if c != pc), len(pivots))
        if free < cols:
            vec = [fld.zero.value] * cols
            vec[free] = fld.one.value
            for r, pc in enumerate(pivots):
                vec[pc] = fld.neg(reduced[r][free])
            lift = ring.one.value if fld is ring else ring.m // fld.p
            return [RingElem(ring, ring.mul(lift, x)) for x in vec]
    return None
