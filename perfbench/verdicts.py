"""Checks each linaff answer against the generator's truth, trusting nothing it says.

`check` parses a job's `key: value` document and accepts it only when
the status agrees with the exit code and every witness re-checks in the
benchmark's own arithmetic:
- `affine` must give the planted coefficients;
- a line witness must refute the line with three evaluations;
- a coefficient witness needs an input built as non-affine, and must
  equal the function's alternating sum over that sub-cube;
- `cannot-cancel` is sound but undecided;
- B_h answers have their h-fold products recomputed;
- a sharpness witness must be non-affine and invisible on every direction;
- a semilinear certificate is re-applied at every point.
"""

from __future__ import annotations

import re

from arith import (
    bh_verdict,
    collision_free,
    frobenius,
    hypercube_coeff,
    line_point,
    mask_of,
    radial_coeff,
    refutes_line,
    ring_prod,
)

NEGATIVE = {
    "non-affine", "collision", "non-regular-difference", "non-regular-element", "none",
    "violation", "witness", "failure", "hypothesis-violation",
}
UNDECIDED = "cannot-cancel"


class Unverified(Exception):
    pass


def _require(cond, why):
    if not cond:
        raise Unverified(why)


def expected_exit(status):
    if status == UNDECIDED:
        return 3
    return 2 if status in NEGATIVE else 0


def parse_document(text):
    doc = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            doc[key] = value
    return doc


def check(job, code, text):
    """(status, problem): problem is None when the answer is verified."""
    doc = parse_document(text or "")
    status = doc.get("status")
    try:
        _require(code in (0, 2, 3) and status is not None,
                 f"exit {code}: {(text or '').strip()[-300:]}")
        _require(code == expected_exit(status), f"exit code {code} disagrees with status {status}")
        if job.pinned:
            _require(status in job.pinned.split("|"), f"known answer is {job.pinned}, got {status}")
        _CHECKS[job.kind](job, status, doc)
    except Unverified as exc:
        return status, str(exc)
    except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        return status, f"unparseable answer ({type(exc).__name__}: {exc}): {text.strip()[:300]}"
    return status, None


def _elems(R, text):
    return tuple(R.parse(t) for t in text.split())


def _line(R, n, tokens):
    """'line base b.. dir d..' tokens -> (base, dir)."""
    _require(tokens[0] == "line" and tokens[1] == "base" and tokens[2 + n] == "dir",
             f"malformed line witness {' '.join(tokens)}")
    base = tuple(R.parse(t) for t in tokens[2:2 + n])
    direction = tuple(R.parse(t) for t in tokens[3 + n:3 + 2 * n])
    _require(any(d != R.from_int(0) for d in direction), "zero line direction")
    return base, direction, tokens[3 + 2 * n:]


def _refuting_param(R, params):
    _require(len(params) == 4 and params[0] == "params", f"malformed params {params}")
    p0, p1, r = (R.parse(t) for t in params[1:])
    _require(p0 == R.from_int(0) and p1 == R.from_int(1), "witness params must be 0 1 r")
    return r


def _recover(job, status, doc):
    t = job.truth
    R, n = t.R, t.n
    if status == "affine":
        _require(t.affine is not None, "answered affine for a non-affine input")
        c0, linear = t.affine
        _require(_elems(R, doc["coeffs"]) == (c0,) + tuple(linear), "affine coefficients differ")
        return
    if status == UNDECIDED:
        degree = doc.get("degree")
        _require(degree is None or 2 <= int(degree) <= n, f"cannot-cancel degree {degree}")
        return
    _require(status == "non-affine", f"unexpected status {status}")
    tokens = doc["witness"].split()
    if tokens[0] == "line":
        base, direction, rest = _line(R, n, tokens)
        r = _refuting_param(R, rest)
        _require(refutes_line(R, t.f, base, direction, r), "line witness does not refute")
        return
    _require(tokens[0] == "coeff" and tokens[2] == "=", f"malformed witness {doc['witness']}")
    _require(t.affine is None, "coefficient witness for an input built affine")
    subset = tuple(int(i) for i in tokens[1].split(","))
    value = R.parse(tokens[3])
    _require(len(subset) >= 2 and int(doc["degree"]) == len(subset), "witness degree")
    _require(all(1 <= i <= n for i in subset), "witness subset out of range")
    _require(value != R.from_int(0), "zero coefficient witness")
    _require(hypercube_coeff(R, t.f, n, mask_of(subset)) == value, "coefficient witness differs")


def _check_line(job, status, doc):
    t = job.truth
    R, f = t.R, t.f
    base, direction = job.extra["base"], job.extra["dir"]
    if status == "affine":
        slope = R.parse(doc["slope"])
        f0 = f(base)
        f1 = f(line_point(R, base, direction, R.from_int(1)))
        _require(slope == R.sub(f1, f0), "slope differs")
        _require(all(f(line_point(R, base, direction, r)) == R.add(f0, R.mul(r, slope))
                     for r in R.elements()), "answered affine on a non-affine line")
        return
    _require(status == "non-affine", f"unexpected status {status}")
    r = _refuting_param(R, doc["witness"].split())
    _require(refutes_line(R, f, base, direction, r), "line witness does not refute")


def _subset_of_nodes(nodes, picked, size):
    _require(len(picked) == size and len(set(picked)) == size and set(picked) <= set(nodes),
             f"{picked} is not a {size}-subset of the nodes")


def _bh_search(job, status, doc):
    R, expected = job.R, job.truth
    if status == "none":
        _require(expected is None, f"answered none, but {expected} is a valid set")
        return
    _require(status == "ok", f"unexpected status {status}")
    found = _elems(R, doc["set"])
    _require(len(found) == job.n and bh_verdict(R, found) == "ok", "found set fails the bundle")
    _require(found == expected, f"found {found}, the first valid set is {expected}")


def _bh_verify(job, status, doc):
    R, nodes, h = job.R, job.truth, job.extra["h"]
    n = len(nodes)
    if h is None:
        truth = bh_verdict(R, nodes)
    else:
        truth = "ok" if collision_free(R, nodes, h) else "collision"
    _require(status == truth, f"answered {status}, the truth is {truth}")
    if status == "collision":
        left, right = _elems(R, doc["left"]), _elems(R, doc["right"])
        size = len(left) if h is None else h
        _subset_of_nodes(nodes, left, size)
        _subset_of_nodes(nodes, right, size)
        _require(set(left) != set(right), "collision of a subset with itself")
        product = ring_prod(R, left)
        _require(product == ring_prod(R, right) == R.parse(doc["product"]), "products differ")
    elif status == "non-regular-difference":
        left, right = _elems(R, doc["left"]), _elems(R, doc["right"])
        _require(2 <= len(left) < n, "difference witness at the wrong h")
        _subset_of_nodes(nodes, left, len(left))
        _subset_of_nodes(nodes, right, len(left))
        diff = R.sub(ring_prod(R, left), ring_prod(R, right))
        _require(diff == R.parse(doc["witness"]) and not R.is_regular(diff),
                 "difference is regular")
    elif status == "non-regular-element":
        s = R.parse(doc["witness"])
        _require(s in nodes and not R.is_regular(s), "element witness is regular")


def _bh_geometric(job, status, doc):
    R = job.R
    _require(status == "ok", f"unexpected status {status}")
    found = _elems(R, doc["set"])
    _require(found == job.truth, f"geometric set {found}, expected {job.truth}")
    _require(bh_verdict(R, found) == "ok", "geometric set fails the bundle")


def _sharpness_certify(job, status, doc):
    # with the bundle intact every per-degree Vandermonde in the subset
    # products has regular pairwise differences, so certification must pass
    _require(bh_verdict(job.R, job.truth) == "ok", "certify input fails the bundle")
    _require(status == "ok", f"answered {status} for a node set passing the bundle")


_TERM = re.compile(r"^(\S+?)\*((?:x\d+)+)$")


def _sharpness_witness(job, status, doc):
    R, n, dirs = job.R, job.n, job.truth
    _require(status == "witness", f"unexpected status {status}")
    k = (n + 1) // 2
    _require(int(doc["degree"]) == k, f"witness degree {doc['degree']}, binding degree is {k}")
    coeffs = {}
    for term in doc["witness"].split(" + "):
        match = _TERM.match(term)
        _require(match is not None, f"witness term {term!r} is not of degree >= 1")
        subset = tuple(int(i) for i in re.findall(r"x(\d+)", match.group(2)))
        _require(len(subset) == k and all(1 <= i <= n for i in subset),
                 f"term {term!r} off degree {k}")
        coeffs[mask_of(subset)] = R.parse(match.group(1))
    _require(any(c != R.from_int(0) for c in coeffs.values()), "zero witness polynomial")
    for v in dirs:
        _require(radial_coeff(R, coeffs, v, k) == R.from_int(0), f"witness visible along {v}")


def _vonstaudt_check(job, status, doc):
    t = job.truth
    R, d = t.R, t.d
    if status == "ok":
        _require(t.semilinear, "answered ok for a map that breaks line images")
        return
    _require(status == "violation", f"unexpected status {status}")
    kind, *tokens = doc["witness"].split()
    base, direction, rest = _line(R, d, tokens)
    points = [line_point(R, base, direction, r) for r in R.elements()]
    images = {t.mapping[p] for p in points}
    if kind == "line-image":
        _require(not _is_line(R, images), "the witness line's image is a line")
        return
    _require(kind == "separation" and rest[0] == "point", f"malformed witness {doc['witness']}")
    point = tuple(R.parse(x) for x in rest[1:1 + d])
    _require(point not in points and t.mapping[point] in images, "separation witness fails")


def _is_line(R, images):
    if len(images) != R.size:
        return False
    x, y = sorted(images)[:2]
    step = tuple(R.sub(b, a) for a, b in zip(x, y))
    return images == {line_point(R, x, step, lam) for lam in R.elements()}


def _vonstaudt_recover(job, status, doc):
    t = job.truth
    R = t.R
    _require(status == "semilinear", f"unexpected status {status}")
    _require(t.semilinear, "certificate for a map that is not semilinear")
    tau = doc["tau"]
    _require(tau.startswith("frobenius^"), f"malformed tau {tau}")
    j = int(tau.split("^")[1])
    offset = _elems(R, doc["offset"])
    columns = [_elems(R, col) for col in doc["basis_images"].split(";")]
    _require(len(columns) == t.d and all(len(c) == t.e for c in columns + [offset]),
             "certificate shape")
    for v, image in t.mapping.items():
        value = offset
        for vi, col in zip(v, columns):
            value = line_point(R, value, col, frobenius(R, vi, j))
        _require(value == image, f"certificate differs from the map at {v}")


_CHECKS = {
    "recover": _recover,
    "check-line": _check_line,
    "bh-search": _bh_search,
    "bh-verify": _bh_verify,
    "bh-geometric": _bh_geometric,
    "sharpness-certify": _sharpness_certify,
    "sharpness-witness": _sharpness_witness,
    "vonstaudt-check": _vonstaudt_check,
    "vonstaudt-recover": _vonstaudt_recover,
}
