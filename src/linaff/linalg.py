"""Exact dense linear algebra over the supported rings.

Matrices are plain lists of rows of RingElem.  Determinants over Z/m,
prime fields included, are computed by lifting to the integers
(fraction-free Bareiss elimination) and reducing, so no division inside
the ring is ever needed; over the other fields the one echelon reduction
`rref` tracks them.  Kernel bases are only defined over fields.  Ranks
over Z/m are taken modulo each prime p | m: a homogeneous system has
only the zero solution iff it has full column rank mod every such p
(McCoy, "Remarks on divisors of zero", 1942, with the Chinese remainder
theorem).
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import PreconditionError
from .rings import Ring, RingElem, Zmod


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


def kernel_basis(rows, cols: int, ring: Ring) -> Iterator[list[RingElem]]:
    """Basis of the right kernel over a field, one vector per free column.

    The vectors are built one at a time as they are taken, so a caller
    that needs only the first pays for that one alone.  They follow the
    reduced-echelon convention (free variable set to 1) and come in
    ascending free-column order, so the result is deterministic.
    """
    reduced, pivots, _ = rref(rows, cols, ring)
    pivot_set = set(pivots)
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [ring.zero] * cols
        vec[free] = ring.one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][free]
        yield vec


def _rank_mod_p(rows: list[list[int]], cols: int, p: int) -> int:
    """Rank over F_p of an integer matrix, by elimination on residues."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top = m[rank]
        inv = pow(top[col], -1, p)
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                factor = m[i][col] * inv
                m[i] = [(a - factor * b) % p for a, b in zip(m[i], top)]
        rank += 1
        if rank == len(m):
            break
    return rank


def matrix_rank(rows, cols: int, ring: Ring) -> int:
    """Rank over a field; over Z/m, the least rank modulo a prime p | m.

    Either way rows * x = 0 has only the zero solution iff the result is
    cols; over Z/m a kernel vector v mod p lifts to the solution (m/p) v.
    """
    if isinstance(ring, Zmod):
        lifted = [[e.value for e in row] for row in rows]
        return min(_rank_mod_p(lifted, cols, p) for p in ring.primes)
    return len(rref(rows, cols, ring)[1])
