"""Seeded inputs for the four workloads, with the truth the checker needs.

Each workload has a fixed skeleton of job slots (rings, arities, job
kinds, direction-set shapes), so that two seeds cost about the same; the
seed fills the slots: coefficients, planted terms, perturbed points,
nodes, directions, twists.  Files are written under the run's work
directory and every job refers to them by a path relative to the
checkout root.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from itertools import product
from math import comb

from arith import (
    GF4,
    GF8,
    GF9,
    affine_part,
    first_bh_set,
    frobenius,
    is_affine_table,
    multiplicative_order,
    poly_eval,
    power,
    ring,
)

WORKLOADS = ("tables-affine", "tables-refute", "directions", "semilinear")

TABLE_RINGS = (5, 7, 11, 4, 6, 8, 9, GF4, GF8, GF9)
# the n = 4 table slots (up to 4,096 points), heaviest first; larger
# tables (F_11^4 takes ~1.8 s) would make a pass too long to repeat
N4_RINGS = (8, 7, 6, 5, 4, GF4)
N3_PER_RING = 3
N2_PER_RING = 7
# tables this large take no planted multi-affine terms in tables-affine,
# and over Z/m only family directions: their cost, which sets job_ms_p90,
# then follows one path whatever the seed
BIG_TABLE = 512


@dataclass
class Scalar:
    """A scalar function R^n -> R as the checker sees it."""

    R: object
    n: int
    f: object  # point (tuple of element codes) -> element code
    affine: tuple | None  # (c0, (c1..cn)) when f is affine


@dataclass
class VectorMap:
    R: object
    d: int
    e: int
    mapping: dict
    semilinear: bool


@dataclass
class Job:
    id: str
    kind: str
    argv: list
    R: object  # the ring, in the benchmark's own arithmetic
    n: int
    truth: object
    extra: dict = field(default_factory=dict)
    pinned: str | None = None  # exact status demanded by a pinned known answer


class Writer:
    """Writes input files into one directory and digests everything written."""

    def __init__(self, root, rel):
        self.dir = os.path.join(root, rel)
        self.rel = rel
        self.digest = hashlib.sha256()
        os.makedirs(self.dir, exist_ok=True)

    def write(self, name, text):
        with open(os.path.join(self.dir, name), "w", encoding="utf-8") as handle:
            handle.write(text)
        self.digest.update(name.encode() + b"\0" + text.encode() + b"\0")
        return f"{self.rel}/{name}"


def _vec(R, v):
    return ",".join(R.fmt(c) for c in v)


def _dirs_arg(R, dirs):
    return ";".join(_vec(R, v) for v in dirs)


def _opt(flag, value):
    """argv for an option whose value may start with '-' (negative rationals)."""
    return [f"{flag}={value}"] if value.startswith("-") else [flag, value]


def _rand_elem(R, rng):
    if R.size is None:
        return R.parse(f"{rng.randint(-9, 9)}/{rng.randint(1, 5)}")
    return rng.randrange(R.size)


def _rand_nonzero(R, rng):
    while True:
        x = _rand_elem(R, rng)
        if x != R.from_int(0):
            return x


def _rand_unit(R, rng):
    while True:
        x = _rand_nonzero(R, rng)
        if R.is_regular(x):
            return x


def _rand_vector(R, n, rng):
    """A nonzero vector; small integer entries over Q."""
    while True:
        if R.size is None:
            v = tuple(R.from_int(rng.randint(-3, 3)) for _ in range(n))
        else:
            v = tuple(rng.randrange(R.size) for _ in range(n))
        if any(c != R.from_int(0) for c in v):
            return v


def _table_text(R, n, f):
    rows = [f"ring {R.spec}", f"arity {n}", "codomain scalar"]
    values = {}
    for x in product(R.elements(), repeat=n):
        values[x] = f(x)
        rows.append("map " + " ".join(map(str, x)) + " -> " + str(values[x]))
    return "\n".join(rows) + "\n", values


def _poly_text(R, n, coeffs):
    rows = [f"ring {R.spec}", f"arity {n}", "poly"]
    for mask in sorted(coeffs, key=lambda m: (m.bit_count(), m)):
        idx = " ".join(str(i + 1) for i in range(n) if mask >> i & 1)
        rows.append(f"term {R.fmt(coeffs[mask])}" + (f" {idx}" if idx else ""))
    return "\n".join(rows) + "\n"


def _affine_coeffs(R, n, rng):
    return {mask: _rand_elem(R, rng) for mask in [0] + [1 << i for i in range(n)]}


def _planted_high(R, n, rng, coeffs, count=1):
    """Add `count` nonzero coefficients of degree >= 2 at random subsets."""
    coeffs = dict(coeffs)
    highs = [m for m in range(1 << n) if m.bit_count() >= 2]
    for mask in rng.sample(highs, min(count, len(highs))):
        coeffs[mask] = _rand_nonzero(R, rng)
    return coeffs


def _half_coeffs(R, n, rng, coeffs):
    """(m/2) x_i x_j over Z/4 or Z/8: affine on every line, yet not affine."""
    coeffs = dict(coeffs)
    i, j = rng.sample(range(n), 2)
    coeffs[1 << i | 1 << j] = R.m // 2
    return coeffs


def _poly_fn(R, coeffs):
    return lambda x: poly_eval(R, coeffs, x)


def _direction_args(R, n, rng, shape):
    """argv tail choosing a direction set of the given shape."""
    if shape == "family":
        return ["--family"]
    if shape == "moment":
        nodes = [_rand_elem(R, rng) for _ in range(n)]
        nodes[rng.randrange(n)] = _rand_unit(R, rng)  # keeps every moment direction nonzero
        return _opt("--moment", _vec(R, nodes))
    return _opt("--dirs", _dirs_arg(R, [_rand_vector(R, n, rng) for _ in range(rng.randint(1, 3))]))


class _Inputs:
    def __init__(self, workload, seed, root, rel):
        self.rng = random.Random(f"{workload}:{seed}")
        self.out = Writer(root, rel)
        self.jobs: list[Job] = []

    def add(self, kind, argv, R, n, truth, **kw):
        self.jobs.append(Job(f"j{len(self.jobs):03d}", kind, argv, R, n, truth, **kw))

    def scalar_file(self, name, R, n, coeffs, extra=None, poly=False):
        """Write a table (or poly body) for the polynomial plus pointwise extras."""
        base = _poly_fn(R, coeffs)
        if poly:
            path = self.out.write(name, _poly_text(R, n, coeffs))
            nonaffine = any(m.bit_count() >= 2 for m in coeffs if coeffs[m] != R.from_int(0))
            affine = None if nonaffine else affine_part(R, base, n)
            return path, Scalar(R, n, base, affine)
        f = base if extra is None else (lambda x: R.add(base(x), extra(x)))
        text, values = _table_text(R, n, f)
        path = self.out.write(name, text)
        look = values.__getitem__
        affine = affine_part(R, look, n) if is_affine_table(R, look, n) else None
        return path, Scalar(R, n, look, affine)


def _table_slots():
    """(ring, arity) for every table, the same for every seed."""
    slots = [(r, 4) for r in N4_RINGS]
    for r in TABLE_RINGS:
        slots += [(r, 3)] * N3_PER_RING + [(r, 2)] * N2_PER_RING
    return slots


def _tables_affine(b: _Inputs):
    rng = b.rng
    for i, (spec, n) in enumerate(_table_slots()):
        R = ring(spec)
        big = R.size**n >= BIG_TABLE
        kind = ("affine", "affine", "multi", "affine", "half", "affine", "multi")[i % 7]
        if kind == "half" and spec not in (4, 8):
            kind = "multi"
        if kind == "multi" and big:
            kind = "affine"
        coeffs = _affine_coeffs(R, n, rng)
        if kind == "half":
            coeffs = _half_coeffs(R, n, rng, coeffs)
        elif kind == "multi":
            coeffs = _planted_high(R, n, rng, coeffs, rng.randint(1, 2))
        path, truth = b.scalar_file(f"t{i:03d}.tbl", R, n, coeffs)
        shape = "family" if big and not R.is_field else ("family", "moment", "custom")[i % 3]
        mode = ["--mode", "proof"] if i % 4 == 3 else []
        argv = ["recover", "--input", path] + _direction_args(R, n, rng, shape) + mode
        b.add("recover", argv, R, n, truth)
    # README and ROADMAP known answers
    Z7, Z4 = ring(7), ring(4)
    path, truth = b.scalar_file("pin_z7.tbl", Z7, 2, {0: 1, 1: 3, 2: 2})
    b.add("recover", ["recover", "--input", path, "--dirs", "1,1"], Z7, 2, truth, pinned="affine")
    path, truth = b.scalar_file("pin_z4.tbl", Z4, 2, {3: 2})
    b.add("recover", ["recover", "--input", path, "--dirs", "1,1"], Z4, 2, truth,
          pinned="cannot-cancel")


def _stratified(keys, rng):
    """For each slot a depth in [0, 1): seeded, but the slots sharing a key
    (a ring and arity) take one each of that many equal strata, and fall in
    the middle half of it, so two seeds fail at similar depths.  The strata
    are shuffled among the slots of a key."""
    strata = {}
    for key in dict.fromkeys(keys):
        count = keys.count(key)
        strata[key] = [(k + 0.25 + rng.random() / 2) / count for k in range(count)]
        rng.shuffle(strata[key])
    return [strata[key].pop() for key in keys]


def _digits(index, q, width):
    return tuple(index // q ** (width - 1 - i) % q for i in range(width))


def _tables_refute(b: _Inputs):
    rng = b.rng
    slots = _table_slots()
    depths = _stratified(slots, rng)
    for i, ((spec, n), depth) in enumerate(zip(slots, depths)):
        R = ring(spec)
        coeffs = _affine_coeffs(R, n, rng)
        if i % 5 == 2:
            coeffs = _planted_high(R, n, rng, coeffs)
        if i % 4 == 1:
            # globally non-multi-affine: c * x_a^2 fails on the first line along axis a
            kind, a, c = "square", i // 4 % n, _rand_unit(R, rng)
            extra = lambda x, a=a, c=c: R.mul(c, R.mul(x[a], x[a]))
        else:
            # the axis-1 line through p is the first to fail: it comes at
            # position (x_2..x_n) of the scan, which the depth picks
            kind = "point"
            rest = _digits(int(depth * R.size ** (n - 1)), R.size, n - 1)
            p = (rng.randrange(R.size),) + rest
            delta = _rand_nonzero(R, rng)
            extra = lambda x, p=p, delta=delta: delta if x == p else 0
        path, truth = b.scalar_file(f"t{i:03d}.tbl", R, n, coeffs, extra)
        shape = ("family", "moment", "custom")[i % 3]
        mode = ["--mode", "proof"] if i % 4 == 3 else []
        argv = ["recover", "--input", path] + _direction_args(R, n, rng, shape) + mode
        b.add("recover", argv, R, n, truth)
        if i % 2 == 0:
            direction = _rand_vector(R, n, rng)
            if kind == "point" and i % 4 == 0:
                base = p  # through the perturbed point
            else:
                base = tuple(rng.randrange(R.size) for _ in range(n))
            argv = ["check-line", "--input", path,
                    "--base", _vec(R, base), "--dir", _vec(R, direction)]
            b.add("check-line", argv, R, n, truth, extra={"base": base, "dir": direction})


# poly-oracle recover slots: (ring, n, direction shape); surplus shapes carry the row count
POLY_ZMOD = (4, 6, 8, 9, 10, 12, 15)
POLY_OTHER = (5, 7, 11, 13, "rational")
SEARCH_FOUND = ((7, 3), (7, 4), (11, 3), (11, 4), (13, 3), (13, 4), (17, 3), (17, 4),
                (GF8, 3), (GF8, 4), (GF9, 3), (GF9, 4))
SEARCH_NONE = ((5, 4), (4, 3), (4, 4), (8, 3), (8, 4), (9, 3), (9, 4), (6, 4), (10, 3),
               (10, 4), (12, 3), (12, 4), (15, 3), (GF4, 4))
GEOMETRIC_PRIMES = (17, 19, 23, 29, 31, 37, 41, 43)
WITNESS_FIELDS = (5, 7, 11, 13, 17, GF8, GF9, "rational")
VERIFY_RINGS = (5, 7, 11, 13, 4, 8, 9, GF8, GF9)


def _poly_slots():
    slots = []
    for m in POLY_ZMOD:
        slots += [(m, 3, "moment"), (m, 3, "rows:5"), (m, 4, "moment"), (m, 4, "rows:8"),
                  (m, 5, "moment"), (m, 5, "family"), (m, 5, "rows:12")]
    for spec in POLY_OTHER:
        slots += [(spec, 3, "moment"), (spec, 3, "rows:4"),
                  (spec, 4, "family"), (spec, 4, "rows:7"),
                  (spec, 5, "moment"), (spec, 5, "rows:11")]
    # surplus rows over Z/m at n = 5, every entry a multiple of a prime p
    # with p^2 not dividing m: each 10 x 10 minor of the degree-2 system is
    # then a zerodivisor, so the solver tries all C(rows, 10) of them
    slots += [(m, 5, "coset:14") for m in (12, 15)] + [(m, 5, "coset:16") for m in (6, 10)]
    return slots


def _coset_vector(R, n, rng):
    """Entries in p*Z/m for the smallest prime p | m, at least two of them nonzero."""
    p = next(d for d in range(2, R.m + 1) if R.m % d == 0)
    while True:
        v = tuple(p * rng.randrange(R.m // p) for _ in range(n))
        if sum(1 for c in v if c) >= 2:
            return v


def _geometric(R, n, rng):
    """A generator g with g^k != 1 for 1 <= k < 2^(n-1), and its node set."""
    while True:
        g = _rand_unit(R, rng)
        if multiplicative_order(R, g) >= 2 ** (n - 1):
            return g, tuple(power(R, g, e) for e in [0] + [2**j for j in range(n - 1)])


def _directions(b: _Inputs):
    rng = b.rng
    for i, (spec, n, shape) in enumerate(_poly_slots()):
        R = ring(spec)
        coeffs = _affine_coeffs(R, n, rng)
        if i % 3 == 2 and not shape.startswith("coset"):
            coeffs = _planted_high(R, n, rng, coeffs, rng.randint(1, 3))
        path, truth = b.scalar_file(f"p{i:03d}.poly", R, n, coeffs, poly=True)
        if shape in ("moment", "family"):
            dir_args = _direction_args(R, n, rng, shape)
        else:
            make, rows = shape.split(":")
            vector = _coset_vector if make == "coset" else _rand_vector
            dir_args = _opt("--dirs", _dirs_arg(R, [vector(R, n, rng) for _ in range(int(rows))]))
        b.add("recover", ["recover", "--input", path] + dir_args, R, n, truth)
    Z6 = ring(6)
    path, truth = b.scalar_file("pin_z6.poly", Z6, 2, {0: 1, 1: 2, 2: 5}, poly=True)
    b.add("recover", ["recover", "--input", path, "--dirs", "1,3;1,2"], Z6, 2, truth,
          pinned="affine|cannot-cancel")

    for spec, n in rng.sample(SEARCH_FOUND, 8) + rng.sample(SEARCH_NONE, 8):
        R = ring(spec)
        b.add("bh-search", ["bh", "search", "--ring", R.spec, "--n", str(n)], R, n,
              first_bh_set(R, n))
    for _ in range(16):
        R = ring(rng.choice(VERIFY_RINGS))
        n = rng.randint(3, min(5, R.size - 1))
        nodes = tuple(rng.sample(range(R.size), n))
        h = rng.choice([None, rng.randint(1, n)])
        argv = ["bh", "verify", "--ring", R.spec, "--set", _vec(R, nodes)]
        b.add("bh-verify", argv + ([] if h is None else ["--h", str(h)]), R, n, nodes,
              extra={"h": h})
    for j in range(10):
        R = ring(rng.choice(GEOMETRIC_PRIMES))
        n = 3 + j % 3
        g, nodes = _geometric(R, n, rng)
        b.add("bh-geometric", ["bh", "geometric", "--ring", R.spec, "--g", R.fmt(g), "--n", str(n)],
              R, n, nodes)
    for j in range(8):
        spec = rng.choice(GEOMETRIC_PRIMES + (GF9,))
        n = 3 + j % (2 if spec == GF9 else 3)
        R = ring(spec)
        _, nodes = _geometric(R, n, rng)
        nodes = tuple(rng.sample(nodes, n))
        argv = ["sharpness", "certify", "--ring", R.spec, "--n", str(n), "--set", _vec(R, nodes)]
        b.add("sharpness-certify", argv, R, n, nodes)
    for j in range(10):
        n = 3 + j % 3
        spec = rng.choice([s for s in WITNESS_FIELDS
                           if s == "rational" or ring(s).size > 2 ** (n - 1)])
        R = ring(spec)
        bound = comb(n, (n + 1) // 2)
        dirs = [_rand_vector(R, n, rng) for _ in range(rng.randint(1, bound - 1))]
        argv = ["sharpness", "witness", "--ring", R.spec, "--n", str(n)]
        argv += _opt("--dirs", _dirs_arg(R, dirs))
        b.add("sharpness-witness", argv, R, n, dirs)


SEMILINEAR_FIELDS = (3, 5, 7, GF4, GF8, GF9)
MAPS_PER_FIELD = 11
BAD_MAPS = (2, 6, 9)  # slots whose map is perturbed at one point


def _semilinear_map(R, d, e, rng):
    k = R.k if hasattr(R, "k") else 1
    j = rng.randrange(k)
    while True:
        cols = [tuple(_rand_elem(R, rng) for _ in range(e)) for _ in range(d)]
        if _independent(R, cols):
            break
    offset = tuple(_rand_elem(R, rng) for _ in range(e))
    mapping = {}
    for v in product(R.elements(), repeat=d):
        image = list(offset)
        for vi, col in zip(v, cols):
            t = frobenius(R, vi, j)
            image = [R.add(a, R.mul(t, c)) for a, c in zip(image, col)]
        mapping[v] = tuple(image)
    return mapping


def _independent(R, cols):
    """No nontrivial combination of the columns vanishes, so the map is injective."""
    zero = R.from_int(0)
    for coefs in product(R.elements(), repeat=len(cols)):
        if any(a != zero for a in coefs):
            combo = [zero] * len(cols[0])
            for a, col in zip(coefs, cols):
                combo = [R.add(o, R.mul(a, c)) for o, c in zip(combo, col)]
            if all(c == zero for c in combo):
                return False
    return True


def _semilinear(b: _Inputs):
    rng = b.rng
    d = 2
    depths = iter(_stratified([s for s in SEMILINEAR_FIELDS for _ in BAD_MAPS], rng))
    for spec in SEMILINEAR_FIELDS:
        R = ring(spec)
        for slot in range(MAPS_PER_FIELD):
            e = 2 + slot % 2
            mapping = _semilinear_map(R, d, e, rng)
            good = slot not in BAD_MAPS
            if not good:
                point = sorted(mapping)[int(next(depths) * len(mapping))]
                old = mapping[point]
                while mapping[point] == old:
                    mapping[point] = tuple(_rand_elem(R, rng) for _ in range(e))
            rows = [f"ring {R.spec}", f"arity {d}", f"codomain vector {e}"]
            rows += ["map " + " ".join(map(str, v)) + " -> " + " ".join(map(str, w))
                     for v, w in sorted(mapping.items())]
            path = b.out.write(f"m{len(b.jobs):03d}.tbl", "\n".join(rows) + "\n")
            truth = VectorMap(R, d, e, mapping, good)
            b.add("vonstaudt-check", ["vonstaudt", "check", "--input", path], R, d, truth)
            if good:
                b.add("vonstaudt-recover", ["vonstaudt", "recover", "--input", path], R, d, truth)


_GENERATORS = {
    "tables-affine": _tables_affine,
    "tables-refute": _tables_refute,
    "directions": _directions,
    "semilinear": _semilinear,
}


def generate(workload, seed, root, rel):
    """Write the workload's inputs under root/rel; return (jobs, digest, warm-up plan)."""
    b = _Inputs(workload, seed, root, rel)
    _GENERATORS[workload](b)
    specs = sorted({job.R.spec for job in b.jobs})
    warm = {"rings": specs, "line_spaces": []}
    if workload == "semilinear":
        warm["line_spaces"] = [[ring(s).spec, 2] for s in SEMILINEAR_FIELDS]
    manifest = repr([job.argv for job in b.jobs]).encode()
    b.out.digest.update(manifest)
    return b.jobs, b.out.digest.hexdigest(), warm
