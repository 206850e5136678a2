"""Command-line surface: parse tables, dispatch, emit deterministic documents.

Documents are line-oriented `key: value` text with a fixed key order, so
identical inputs produce byte-identical output; `--json` mirrors every
document with the same keys and values.  Exit codes: 0 for affirmative
certificates, 1 for usage or parse errors, 2 for negative certificates
(non-affine, collision, violation, witness produced), 3 for
cannot-cancel.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from itertools import product

from . import __version__, bh_sets, recovery, sharpness, vonstaudt
from .errors import LinaffError, ParseError
from .multiaffine import (
    Line,
    LineCheck,
    MultiAffinePoly,
    PolyOracle,
    TableOracle,
    line_affine_check,
    mask_to_subset,
    psi_extract,
    subset_to_mask,
)
from .rings import Rationals, Ring, parse_ring_spec
from .vonstaudt import VectorMapTable

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_CANNOT_CANCEL = 3

_NEGATIVE = {
    "non-affine",
    "collision",
    "non-regular-difference",
    "non-regular-element",
    "none",
    "violation",
    "witness",
    "failure",
}

_KEY_ORDER = [
    "status",
    "N",
    "slope",
    "coeffs",
    "set",
    "dirs",
    "witness",
    "degree",
    "det",
    "tau",
    "offset",
    "basis_images",
    "left",
    "right",
    "product",
    "version",
    "digest",
]


# ---------------------------------------------------------------------------
# function table parsing


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def parse_function_table(text: str):
    """Parse a table/poly file into a TableOracle, PolyOracle or VectorMapTable."""
    ring: Ring | None = None
    arity = None
    codomain_dim = None  # None for a scalar codomain
    rows = []  # (lineno, point_texts, value_texts)
    terms = []  # (lineno, coeff_text, index_texts)
    in_poly = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if in_poly:
            if head != "term":
                raise ParseError(f"expected 'term', got {head!r}", lineno)
            if len(toks) < 2:
                raise ParseError("term needs a coefficient", lineno)
            terms.append((lineno, toks[1], toks[2:]))
            continue
        if head == "ring":
            try:
                ring = parse_ring_spec(" ".join(toks[1:]))
            except LinaffError as exc:
                raise ParseError(str(exc), lineno) from None
        elif head == "arity":
            if len(toks) != 2 or not toks[1].isdigit():
                raise ParseError("arity needs one integer", lineno)
            arity = int(toks[1])
        elif head == "codomain":
            if len(toks) == 2 and toks[1] == "scalar":
                codomain_dim = None
            elif len(toks) == 3 and toks[1] == "vector" and toks[2].isdigit():
                codomain_dim = int(toks[2])
            else:
                raise ParseError("codomain must be 'scalar' or 'vector <e>'", lineno)
        elif head == "map":
            if ring is None or arity is None:
                raise ParseError("map rows must follow ring and arity", lineno)
            body = toks[1:]
            if "->" not in body:
                raise ParseError("map row needs '->'", lineno)
            sep = body.index("->")
            rows.append((lineno, body[:sep], body[sep + 1 :]))
        elif head == "poly":
            if ring is None or arity is None:
                raise ParseError("poly body must follow ring and arity", lineno)
            in_poly = True
        else:
            raise ParseError(f"unrecognized directive {head!r}", lineno)
    if ring is None:
        raise ParseError("missing ring declaration")
    if arity is None:
        raise ParseError("missing arity declaration")

    if in_poly:
        if rows:
            raise ParseError("cannot mix map rows with a poly body")
        return _build_poly_oracle(ring, arity, terms)
    if isinstance(ring, Rationals):
        raise ParseError("rational oracles need a poly body, not map rows")
    if codomain_dim is None:
        return TableOracle(ring, arity, _collect_rows(ring, arity, rows))
    mapping = _collect_rows(ring, arity, rows, codomain_dim)
    try:
        return VectorMapTable(ring, arity, codomain_dim, mapping)
    except LinaffError as exc:
        raise ParseError(str(exc)) from None


def _parse_point(ring: Ring, texts, lineno, expected):
    if len(texts) != expected:
        raise ParseError(f"expected {expected} coordinates, got {len(texts)}", lineno)
    try:
        return tuple(ring.parse_element(t) for t in texts)
    except LinaffError as exc:
        raise ParseError(str(exc), lineno) from None


def _collect_rows(ring, arity, rows, width=None):
    """Point -> value map of the map rows, checked exhaustive.

    Values are tuples of `width` coordinates, or bare elements for a
    scalar table (width None), stored in the one pass over the rows.
    """
    scalar = width is None
    mapping = {}
    for lineno, pt_texts, val_texts in rows:
        point = _parse_point(ring, pt_texts, lineno, arity)
        value = _parse_point(ring, val_texts, lineno, 1 if scalar else width)
        if point in mapping:
            raise ParseError("duplicate point " + " ".join(pt_texts), lineno)
        mapping[point] = value[0] if scalar else value
    if len(mapping) != ring.size**arity:
        missing = next(p for p in product(ring.elements(), repeat=arity) if p not in mapping)
        raise ParseError(
            "table is missing the point "
            + " ".join(ring.format_element(c) for c in missing)
        )
    return mapping


def _build_poly_oracle(ring, arity, terms):
    coeffs = {}
    for lineno, coeff_text, idx_texts in terms:
        try:
            coeff = ring.parse_element(coeff_text)
        except LinaffError as exc:
            raise ParseError(str(exc), lineno) from None
        indices = []
        for t in idx_texts:
            if not t.isdigit() or not 1 <= int(t) <= arity:
                raise ParseError(f"variable index {t!r} out of range 1..{arity}", lineno)
            indices.append(int(t))
        if len(set(indices)) != len(indices):
            raise ParseError("repeated variable index in term", lineno)
        mask = subset_to_mask(indices)
        if mask in coeffs:
            raise ParseError("duplicate term for the same variable subset", lineno)
        coeffs[mask] = coeff
    return PolyOracle(MultiAffinePoly(ring, arity, coeffs))


def format_function_table(oracle) -> str:
    """Canonical text for an oracle; parsing it back yields an equal oracle."""
    if isinstance(oracle, PolyOracle):
        lines = [
            f"ring {oracle.ring.spec_text()}",
            f"arity {oracle.arity}",
            "poly",
        ]
        for mask, coeff in oracle.poly.terms():
            idx = " ".join(str(i) for i in mask_to_subset(mask))
            entry = f"term {oracle.ring.format_element(coeff)}"
            lines.append(entry + (f" {idx}" if idx else ""))
        return "\n".join(lines) + "\n"
    if isinstance(oracle, VectorMapTable):
        ring = oracle.field
        header = [
            f"ring {ring.spec_text()}",
            f"arity {oracle.dim_in}",
            f"codomain vector {oracle.dim_out}",
        ]
        items = sorted(
            oracle.mapping.items(), key=lambda kv: tuple(ring.encode(c) for c in kv[0])
        )
        body = [
            "map "
            + " ".join(ring.format_element(c) for c in pt)
            + " -> "
            + " ".join(ring.format_element(c) for c in img)
            for pt, img in items
        ]
        return "\n".join(header + body) + "\n"
    ring = oracle.ring
    header = [f"ring {ring.spec_text()}", f"arity {oracle.arity}", "codomain scalar"]
    items = sorted(
        oracle.table.items(), key=lambda kv: tuple(ring.encode(c) for c in kv[0])
    )
    body = [
        "map "
        + " ".join(ring.format_element(c) for c in pt)
        + " -> "
        + ring.format_element(v)
        for pt, v in items
    ]
    return "\n".join(header + body) + "\n"


# ---------------------------------------------------------------------------
# document rendering


def _fmt_elem(e) -> str:
    return e.ring.format_element(e)


def _fmt_point(pt) -> str:
    return " ".join(_fmt_elem(c) for c in pt)


def _fmt_line_witness(line: Line, params) -> str:
    return (
        f"line base {_fmt_point(line.base)} dir {_fmt_point(line.dir)}"
        f" params {_fmt_point(params)}"
    )


def document_for(obj) -> list[tuple[str, str]]:
    """Ordered key/value pairs for any certificate-like object."""
    if isinstance(obj, recovery.Certificate):
        return _certificate_doc(obj)
    if isinstance(obj, LineCheck):
        if obj.ok:
            return [("status", "affine"), ("slope", _fmt_elem(obj.slope))]
        return [("status", "non-affine"), ("witness", f"params {_fmt_point(obj.witness)}")]
    if isinstance(obj, MultiAffinePoly):
        return [("status", "ok"), ("coeffs", repr(obj))]
    if isinstance(obj, bh_sets.Collision):
        return [
            ("status", "collision"),
            ("left", _fmt_point(obj.left)),
            ("right", _fmt_point(obj.right)),
            ("product", _fmt_elem(obj.product)),
        ]
    if isinstance(obj, bh_sets.BhReport):
        return _bh_report_doc(obj)
    if isinstance(obj, bh_sets.BhCandidate):
        return [("status", "ok"), ("set", _fmt_point(obj.elements))]
    if isinstance(obj, sharpness.SharpnessWitness):
        return [
            ("status", "witness"),
            ("degree", str(obj.degree)),
            ("witness", repr(obj.poly)),
        ]
    if isinstance(obj, sharpness.CertifyResult):
        if obj.ok:
            return [("status", "ok")]
        return [
            ("status", "failure"),
            ("degree", str(obj.degree)),
            ("det", _fmt_elem(obj.det)),
        ]
    if isinstance(obj, vonstaudt.HypothesisCheck):
        if obj.ok:
            return [("status", "ok")]
        line = obj.line
        witness = f"line-image line base {_fmt_point(line.base)} dir {_fmt_point(line.dir)}"
        return [("status", "violation"), ("witness", witness)]
    if isinstance(obj, vonstaudt.SemilinearCert):
        return [
            ("status", "semilinear"),
            ("tau", f"frobenius^{obj.tau_power}"),
            ("offset", _fmt_point(obj.offset)),
            ("basis_images", " ; ".join(_fmt_point(col) for col in obj.basis_images)),
        ]
    raise LinaffError(f"no document form for {obj!r}")


def _certificate_doc(cert: recovery.Certificate) -> list[tuple[str, str]]:
    if cert.status == recovery.AFFINE:
        coeffs = _fmt_elem(cert.constant) + "".join(
            " " + _fmt_elem(c) for c in cert.linear
        )
        return [("status", "affine"), ("coeffs", coeffs)]
    if cert.status == recovery.NON_AFFINE:
        doc = [("status", "non-affine")]
        if cert.line is not None:
            doc.append(("witness", _fmt_line_witness(cert.line, cert.params)))
        else:
            subset = ",".join(str(i) for i in cert.mask)
            doc.append(("witness", f"coeff {subset} = {_fmt_elem(cert.coeff)}"))
            doc.insert(1, ("degree", str(cert.degree)))
        return doc
    return [
        ("status", "cannot-cancel"),
        ("degree", str(cert.degree)),
        ("det", _fmt_elem(cert.det)),
    ]


def _bh_report_doc(report: bh_sets.BhReport) -> list[tuple[str, str]]:
    collision = report.first_collision()
    if collision is not None:
        return document_for(collision)
    if report.property2 is not None:
        f = report.property2
        return [
            ("status", "non-regular-difference"),
            ("left", _fmt_point(f.left)),
            ("right", _fmt_point(f.right)),
            ("witness", _fmt_elem(f.difference)),
        ]
    if report.nonregular_element is not None:
        return [
            ("status", "non-regular-element"),
            ("witness", _fmt_elem(report.nonregular_element)),
        ]
    return [("status", "ok")]


def emit_certificate(obj) -> str:
    """Deterministic text rendering of a certificate-like object."""
    return "".join(f"{k}: {v}\n" for k, v in document_for(obj))


def _exit_code_for(doc: list[tuple[str, str]]) -> int:
    status = dict(doc).get("status", "ok")
    if status == "cannot-cancel":
        return EXIT_CANNOT_CANCEL
    if status in _NEGATIVE:
        return EXIT_NEGATIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


@functools.cache
def _build_parser() -> _Parser:
    # built once per process: parse_args leaves the parser unchanged
    parser = _Parser(prog="linaff", description="exact affine-linearity certificates")
    parser.add_argument("--json", action="store_true", help="emit the document as JSON")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("check-line", help="affinity of f along one line")
    p.add_argument("--input", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--dir", required=True)

    p = sub.add_parser("psi", help="hypercube coefficients of f")
    p.add_argument("--input", required=True)
    p.add_argument("--base")

    p = sub.add_parser("recover", help="decide global affine-linearity")
    p.add_argument("--input", required=True)
    p.add_argument("--dirs")
    p.add_argument("--family", action="store_true")
    p.add_argument("--moment")
    p.add_argument("--count", type=int)
    p.add_argument("--mode", choices=["exhaustive", "proof"], default="exhaustive")

    p = sub.add_parser("directions", help="print a test direction set")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", action="store_true")
    p.add_argument("--moment")
    p.add_argument("--count", type=int)

    bh = sub.add_parser("bh", help="weak multiplicative B_h sets").add_subparsers(
        dest="bh_command"
    )
    p = bh.add_parser("verify")
    p.add_argument("--ring", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--h", type=int)
    p = bh.add_parser("search")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=1_000_000)
    p = bh.add_parser("geometric")
    p.add_argument("--ring", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--n", type=int, required=True)

    sh = sub.add_parser("sharpness", help="direction-count bounds").add_subparsers(
        dest="sharpness_command"
    )
    p = sh.add_parser("bound")
    p.add_argument("--n", type=int, required=True)
    p = sh.add_parser("witness")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dirs", required=True)
    p = sh.add_parser("certify")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True)

    vst = sub.add_parser("vonstaudt", help="semilinear recovery").add_subparsers(
        dest="vonstaudt_command"
    )
    p = vst.add_parser("check")
    p.add_argument("--input", required=True)
    p = vst.add_parser("recover")
    p.add_argument("--input", required=True)

    return parser


def _parse_vector(ring: Ring, text: str):
    parts = [t for t in text.split(",") if t.strip() != ""]
    if not parts:
        raise ParseError(f"empty vector in {text!r}")
    try:
        return tuple(ring.parse_element(t.strip()) for t in parts)
    except LinaffError as exc:
        raise ParseError(f"bad vector {text!r}: {exc}") from None


def _parse_dirs(ring: Ring, arity: int, text: str) -> recovery.DirectionSet:
    vectors = [
        _parse_vector(ring, chunk) for chunk in text.split(";") if chunk.strip() != ""
    ]
    return recovery.DirectionSet(ring, arity, tuple(vectors))


def _load_oracle(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return text, parse_function_table(text)


def _scalar_oracle(oracle):
    if isinstance(oracle, VectorMapTable):
        raise ParseError("this subcommand needs a scalar-valued oracle")
    return oracle


def _vector_table(oracle):
    if not isinstance(oracle, VectorMapTable):
        raise ParseError("this subcommand needs a 'codomain vector' table")
    return oracle


def _direction_set(args, ring, arity) -> recovery.DirectionSet:
    dirs_text = getattr(args, "dirs", None)
    family = getattr(args, "family", False)
    moment = getattr(args, "moment", None)
    if [bool(dirs_text), family, bool(moment)].count(True) != 1:
        raise ParseError("give exactly one of --dirs, --family, --moment")
    if dirs_text:
        return _parse_dirs(ring, arity, dirs_text)
    if family:
        return recovery.family_directions(ring, arity)
    nodes = _parse_vector(ring, moment)
    if len(nodes) != arity:
        raise ParseError(f"--moment needs {arity} node values")
    count = getattr(args, "count", None)
    if count is None:
        count = sharpness.minimal_direction_count(arity) if arity >= 2 else 1
    return recovery.moment_directions(nodes, count)


# ---------------------------------------------------------------------------
# subcommand handlers


def _run(args) -> tuple[list[tuple[str, str]], str]:
    """Dispatch; returns (document, digest source text)."""
    cmd = args.command
    if cmd == "check-line":
        text, oracle = _load_oracle(args.input)
        oracle = _scalar_oracle(oracle)
        base = _parse_vector(oracle.ring, args.base)
        direction = _parse_vector(oracle.ring, args.dir)
        check = line_affine_check(oracle, Line(base, direction))
        return document_for(check), text
    if cmd == "psi":
        text, oracle = _load_oracle(args.input)
        oracle = _scalar_oracle(oracle)
        base = _parse_vector(oracle.ring, args.base) if args.base else None
        return document_for(psi_extract(oracle, base)), text
    if cmd == "recover":
        text, oracle = _load_oracle(args.input)
        oracle = _scalar_oracle(oracle)
        dirs = _direction_set(args, oracle.ring, oracle.arity)
        cert = recovery.recover(oracle, dirs, mode=args.mode)
        return document_for(cert), text
    if cmd == "directions":
        ring = parse_ring_spec(args.ring)
        dirs = _direction_set(args, ring, args.n)
        rendered = ";".join(
            ",".join(_fmt_elem(c) for c in v) for v in dirs.dirs
        )
        return [("status", "ok"), ("dirs", rendered)], args.ring
    if cmd == "bh":
        return _run_bh(args)
    if cmd == "sharpness":
        return _run_sharpness(args)
    if cmd == "vonstaudt":
        sub = args.vonstaudt_command
        if sub is None:
            raise ParseError("vonstaudt needs a subcommand: check or recover")
        text, oracle = _load_oracle(args.input)
        table = _vector_table(oracle)
        if sub == "check":
            return document_for(vonstaudt.check_hypotheses(table)), text
        return document_for(vonstaudt.recover_semilinear(table)), text
    raise ParseError("missing subcommand; see --help")


def _run_bh(args):
    sub = args.bh_command
    if sub is None:
        raise ParseError("bh needs a subcommand: verify, search or geometric")
    ring = parse_ring_spec(args.ring)
    if sub == "verify":
        elements = _parse_vector(ring, args.set)
        candidate = bh_sets.BhCandidate(ring, elements)
        if args.h is not None:
            collision = bh_sets.verify_bh(candidate, args.h)
            doc = [("status", "ok")] if collision is None else document_for(collision)
            return doc, args.set
        return document_for(bh_sets.verify_properties(candidate)), args.set
    if sub == "search":
        found = bh_sets.search_bh(ring, args.n, args.budget)
        if found is None:
            return [("status", "none")], args.ring
        return document_for(found), args.ring
    g = ring.parse_element(args.g)
    return document_for(bh_sets.construct_geometric(g, args.n)), args.ring


def _run_sharpness(args):
    sub = args.sharpness_command
    if sub is None:
        raise ParseError("sharpness needs a subcommand: bound, witness or certify")
    if sub == "bound":
        n = sharpness.minimal_direction_count(args.n)
        return [("status", "ok"), ("N", str(n))], str(args.n)
    ring = parse_ring_spec(args.ring)
    if sub == "witness":
        dirs = _parse_dirs(ring, args.n, args.dirs)
        witness = sharpness.lower_bound_witness(args.n, dirs, ring)
        return document_for(witness), args.dirs
    elements = _parse_vector(ring, args.set)
    candidate = bh_sets.BhCandidate(ring, elements)
    result = sharpness.certify_directions(args.n, ring, candidate)
    return document_for(result), args.set


def run_subcommand(argv) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit code, document text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        doc, digest_source = _run(args)
    except LinaffError as exc:
        # domain preconditions and malformed input are both usage errors here
        return EXIT_USAGE, f"error: {exc}\n"
    digest = hashlib.sha256(digest_source.encode("utf-8")).hexdigest()
    doc = doc + [("version", __version__), ("digest", digest)]
    doc.sort(key=lambda kv: _KEY_ORDER.index(kv[0]))
    if args.json:
        text = json.dumps(dict(doc), indent=None, separators=(", ", ": ")) + "\n"
    else:
        text = "".join(f"{k}: {v}\n" for k, v in doc)
    return _exit_code_for(doc), text


def main(argv=None) -> int:
    code, text = run_subcommand(sys.argv[1:] if argv is None else argv)
    stream = sys.stderr if code == EXIT_USAGE else sys.stdout
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
