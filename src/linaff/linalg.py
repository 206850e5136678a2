"""Exact dense linear algebra over the supported rings: one routine,
`kernel_vector`, which decides whether a homogeneous system of rows of
values forces its unknowns to zero by one Gauss-Jordan pass through the
ring's value-level operations.  Over Z/m it never factors m.  It
eliminates modulo a part n | m as if n were prime, and a pivot that is
nonzero mod n but not a unit splits n by a gcd instead of being inverted
(dynamic evaluation: Della Dora, Dicrescenzo and Duval, EUROCAL 1985).
Each prime of m divides a part, so full column rank in every part forces
x = 0 (McCoy, "Remarks on divisors of zero", 1942, with the CRT).
"""

from __future__ import annotations

import math

from .rings import Ring, RingElem


def kernel_vector(rows, cols: int, ring: Ring) -> list | None:
    """A nonzero solution of rows * x = 0, x with `cols` entries, or None
    when x = 0 is the only one; the rows and x are given as values.

    Over a field it is the reduced-echelon kernel vector of the first free
    column (that variable 1, the other free ones 0), unique as the reduced
    echelon form is.  Over Z/m, F_p too, the rows stay residues mod m,
    valid modulo each part n | m, first m itself; a non-unit pivot a
    replaces n by g = gcd(a, n) and n/g.  A part's first free column gives
    that vector x mod n, lifted to (m/n) x.
    """
    add, mul, neg = ring.add, ring.mul, ring.neg
    whole = getattr(ring, "m", None)
    parts = [whole]
    while parts:
        n = parts.pop()
        mat = [list(row) for row in rows]
        pivots = []
        for col in range(cols):
            r = len(pivots)
            column = [row[col] for row in mat]
            if n != whole:  # nonzero means nonzero mod n: plain truthiness for m or a field
                column = [x % n for x in column]
            for pivot in range(r, len(mat)):
                if column[pivot]:
                    break
            else:  # the first free column: its vector is final
                vec = [ring.one.value if c == col else ring.zero.value for c in range(cols)]
                for i, pc in enumerate(pivots):
                    vec[pc] = neg(mat[i][col])
                return [mul(1 if n == whole else whole // n, x) for x in vec]
            a = column[pivot]
            if n is None:
                inv = ring.inverse(RingElem(ring, a)).value
            elif (g := math.gcd(a, n)) > 1:
                parts += [g, n // g]
                break
            else:
                inv = pow(a, -1, n)
            mat[r], mat[pivot] = mat[pivot], mat[r]
            column[r], column[pivot] = column[pivot], column[r]
            mat[r] = [mul(e, inv) for e in mat[r]]
            for i, c in enumerate(column):
                if i != r and c:
                    factor = neg(c)
                    mat[i] = [add(x, mul(factor, y)) for x, y in zip(mat[i], mat[r])]
            pivots.append(col)
    return None
