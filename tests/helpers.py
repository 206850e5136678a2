"""Shared helpers for the test suite: random generators and brute oracles."""

from fractions import Fraction
from itertools import combinations, permutations, product

from linaff import (
    BhReport,
    MultiAffinePoly,
    TableOracle,
    enumerate_affine_lines,
    evaluate,
    verify_bh,
)
from linaff.bh_sets import Property2Failure
from linaff.linalg import determinant


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
    table = {pt: evaluate(poly, pt) for pt in all_points(poly.ring, poly.arity)}
    return TableOracle(poly.ring, poly.arity, table)


def table_from_function(ring, n, func) -> TableOracle:
    return TableOracle(ring, n, {pt: func(pt) for pt in all_points(ring, n)})


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
    """Reference for verify_properties: property (2) by comparing every pair
    of h-fold products, in lexicographic pair order."""
    ring, n = candidate.ring, len(candidate)
    per_h = {h: verify_bh(candidate, h) for h in range(1, n + 1)}
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
                return BhReport(per_h, Property2Failure(h, subsets[a], subsets[b], diff), None)
    nonregular = next((s for s in candidate.elements if not ring.is_regular(s)), None)
    return BhReport(per_h, None, nonregular)


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
