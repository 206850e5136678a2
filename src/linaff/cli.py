"""Command-line surface: parse tables, dispatch, emit deterministic documents.

Documents are line-oriented `key: value` text.  Each result's
`document()` fixes its keys and their order, and every document ends
with `version` and `digest`, so identical inputs produce byte-identical
output; `--json` mirrors every document with the same keys and values.
Exit codes: 0 for affirmative certificates, 1 for usage or parse errors,
2 for negative certificates (non-affine, collision, violation, witness
produced), 3 for undecided answers (cannot-cancel, or a search whose
budget ran out), 4 for a failed internal cross-check (a bug).

A call imports only the modules its subcommand runs, and `json` only
under `--json`, so that a cold process compiles nothing it does not use.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from itertools import chain, product, repeat

from . import __version__
from .errors import InconsistencyError, LinaffError, ParseError, PreconditionError
from .multiaffine import (
    FunctionOracle,
    Line,
    MultiAffinePoly,
    TableOracle,
    flat_table,
    line_affine_check,
    mask_to_subset,
    point_index,
    psi_extract,
    subset_to_mask,
)
from .rings import Rationals, Ring, format_elements, parse_ring_spec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_CANNOT_CANCEL = 3
EXIT_INTERNAL = 4

_NEGATIVE = {"non-affine", "collision", "non-regular-difference", "none", "violation", "witness"}


# ---------------------------------------------------------------------------
# function table parsing


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def parse_function_table(text: str):
    """Parse a table/poly file into a TableOracle, MultiAffinePoly or VectorMapTable."""
    ring: Ring | None = None
    arity = None
    codomain_dim = None  # None for a scalar codomain
    rows = []  # (lineno, point_texts, value_texts)
    terms = []  # (lineno, coeff_text, index_texts)
    in_poly = False
    values = None  # the map body's values once the column pass decides it
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
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
            if len(toks) != 2 or not toks[1].isdecimal():
                raise ParseError("arity needs one integer", lineno)
            arity = int(toks[1])
        elif head == "codomain":
            if len(toks) == 2 and toks[1] == "scalar":
                codomain_dim = None
            elif len(toks) == 3 and toks[1] == "vector" and toks[2].isdecimal():
                codomain_dim = int(toks[2])
            else:
                raise ParseError("codomain must be 'scalar' or 'vector <e>'", lineno)
        elif head == "map":
            if ring is None or arity is None:
                raise ParseError("map rows must follow ring and arity", lineno)
            if not rows:
                values = _map_columns(ring, arity, codomain_dim, lines[lineno - 1 :])
                if values is not None:
                    break
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
    if values is None:
        values = _collect_rows(ring, arity, rows, codomain_dim)
    if codomain_dim is None:
        return TableOracle.from_codes(ring, arity, values)
    from . import vonstaudt
    try:
        return vonstaudt.VectorMapTable.from_codes(ring, arity, codomain_dim, values)
    except LinaffError as exc:
        raise ParseError(str(exc)) from None


def _parse_codes(ring: Ring, texts, lineno, expected):
    if len(texts) != expected:
        raise ParseError(f"expected {expected} coordinates, got {len(texts)}", lineno)
    try:
        return list(map(ring.parse_code, texts))
    except LinaffError as exc:
        raise ParseError(str(exc), lineno) from None


@functools.lru_cache(maxsize=8)
def _codes_by_text(ring: Ring) -> dict:
    """{str(code): code} for every element code of a finite ring."""
    return {str(code): code for code in range(ring.size)}


def _map_columns(ring, arity, width, body):
    """The map body's values in point-index order, or None to run the row pass.

    `body` holds the lines from the first map row on.  The body is split
    into tokens once and read a column at a time: every row has the same
    stride, `map`, `arity` codes, `->`, then one code (`width` codes for a
    vector table).  The values are what `_collect_rows` returns when each
    non-blank line is one such row, every code is written as `str(code)`
    (so no token holds a `#`), and the rows come in point-index order,
    as `format_function_table` writes them: point column j, compared as
    text, is each code's text q^(arity-1-j) times, that run q^j times, and
    only the value columns are looked up.  Anything else, shuffled rows
    included, gets None, and the row pass decides it and names the error.
    """
    # arity >= 1 bounds the ring size, and so the code dict, by the row count
    if not ring.is_finite or arity < 1 or width == 0:
        return None
    q = ring.size
    stride = arity + 2 + (1 if width is None else width)
    text = "\n".join(body)
    toks = text.split()
    rows = len(toks) // stride
    if (
        len(toks) != rows * stride
        or rows != q**arity
        or toks[::stride].count("map") != rows
        or toks[arity + 1 :: stride].count("->") != rows
        # each row starts a line and no other line holds a token
        or text.count("\nmap") + text.startswith("map") != rows
        or len(body) - body.count("") != rows
    ):
        return None
    codes = _codes_by_text(ring)
    for j in range(arity):
        run = chain.from_iterable(repeat(t, q ** (arity - 1 - j)) for t in codes)
        if toks[1 + j :: stride] != list(run) * q**j:
            return None
    try:
        cols = [list(map(codes.__getitem__, toks[j::stride])) for j in range(arity + 2, stride)]
    except KeyError:
        return None
    return cols[0] if width is None else list(zip(*cols))


def _collect_rows(ring, arity, rows, width=None):
    """Values of the map rows in point-index order, checked exhaustive.

    A scalar table's values (width None) are element codes, the storage
    of `TableOracle`; a vector table's are tuples of `width` codes, the
    storage of `VectorMapTable`.
    """
    q = ring.size
    by_index = {}
    for lineno, pt_texts, val_texts in rows:
        index = point_index(q, _parse_codes(ring, pt_texts, lineno, arity))
        if width is None:
            (value,) = _parse_codes(ring, val_texts, lineno, 1)
        else:
            value = tuple(_parse_codes(ring, val_texts, lineno, width))
        if index in by_index:
            raise ParseError("duplicate point " + " ".join(pt_texts), lineno)
        by_index[index] = value
    try:
        return flat_table(ring, arity, by_index)
    except PreconditionError as exc:
        raise ParseError(str(exc)) from None


def _build_poly_oracle(ring, arity, terms):
    coeffs = {}
    for lineno, coeff_text, idx_texts in terms:
        try:
            coeff = ring.parse_element(coeff_text)
        except LinaffError as exc:
            raise ParseError(str(exc), lineno) from None
        indices = []
        for t in idx_texts:
            if not t.isdecimal() or not 1 <= int(t) <= arity:
                raise ParseError(f"variable index {t!r} out of range 1..{arity}", lineno)
            indices.append(int(t))
        if len(set(indices)) != len(indices):
            raise ParseError("repeated variable index in term", lineno)
        mask = subset_to_mask(indices)
        if mask in coeffs:
            raise ParseError("duplicate term for the same variable subset", lineno)
        coeffs[mask] = coeff
    return MultiAffinePoly(ring, arity, coeffs)


def format_function_table(oracle) -> str:
    """Canonical text for an oracle; parsing it back yields an equal oracle."""
    if isinstance(oracle, MultiAffinePoly):
        lines = [
            f"ring {oracle.ring.spec_text()}",
            f"arity {oracle.arity}",
            "poly",
        ]
        for mask, coeff in oracle.terms():
            idx = " ".join(str(i) for i in mask_to_subset(mask))
            entry = f"term {oracle.ring.format_element(coeff)}"
            lines.append(entry + (f" {idx}" if idx else ""))
        return "\n".join(lines) + "\n"
    if isinstance(oracle, TableOracle):
        ring, arity, images = oracle.ring, oracle.arity, [(c,) for c in oracle.codes]
        codomain = "scalar"
    else:
        ring, arity, images = oracle.field, oracle.dim_in, oracle.codes
        codomain = f"vector {oracle.dim_out}"
    header = [f"ring {ring.spec_text()}", f"arity {arity}", f"codomain {codomain}"]
    elements = ring.elements()
    body = [
        "map " + format_elements(pt) + " -> " + format_elements(elements[c] for c in image)
        for pt, image in zip(product(elements, repeat=arity), images)
    ]
    return "\n".join(header + body) + "\n"


# ---------------------------------------------------------------------------
# document rendering


def _text(doc: list[tuple[str, str]]) -> str:
    return "".join(f"{k}: {v}\n" for k, v in doc)


def emit_certificate(obj) -> str:
    """Deterministic text rendering of a result's document."""
    return _text(obj.document())


def _exit_code_for(doc: list[tuple[str, str]]) -> int:
    status = dict(doc).get("status", "ok")
    if status in ("cannot-cancel", "inconclusive"):
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


def _parse_dirs(ring: Ring, arity: int, text: str):
    from . import recovery
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
    if not isinstance(oracle, FunctionOracle):
        raise ParseError("this subcommand needs a scalar-valued oracle")
    return oracle


def _vector_table(oracle):
    if isinstance(oracle, FunctionOracle):
        raise ParseError("this subcommand needs a 'codomain vector' table")
    return oracle


def _direction_set(args, ring, arity):
    from . import recovery
    dirs_text = getattr(args, "dirs", None)
    family = getattr(args, "family", False)
    moment = getattr(args, "moment", None)
    if [bool(dirs_text), family, bool(moment)].count(True) != 1:
        raise ParseError("give exactly one of --dirs, --family, --moment")
    if arity < 1:
        raise PreconditionError(f"arity must be >= 1, got {arity}")
    if dirs_text:
        return _parse_dirs(ring, arity, dirs_text)
    if family:
        return recovery.family_directions(ring, arity)
    nodes = _parse_vector(ring, moment)
    if len(nodes) != arity:
        raise ParseError(f"--moment needs {arity} node values")
    count = getattr(args, "count", None)
    if count is None:
        count = recovery.minimal_direction_count(arity) if arity >= 2 else 1
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
        return line_affine_check(oracle, Line(base, direction)).document(), text
    if cmd == "psi":
        text, oracle = _load_oracle(args.input)
        oracle = _scalar_oracle(oracle)
        base = _parse_vector(oracle.ring, args.base) if args.base else None
        return [("status", "ok"), ("coeffs", repr(psi_extract(oracle, base)))], text
    if cmd == "recover":
        from . import recovery
        text, oracle = _load_oracle(args.input)
        oracle = _scalar_oracle(oracle)
        dirs = _direction_set(args, oracle.ring, oracle.arity)
        return recovery.recover(oracle, dirs, mode=args.mode).document(), text
    if cmd == "directions":
        ring = parse_ring_spec(args.ring)
        dirs = _direction_set(args, ring, args.n)
        rendered = ";".join(",".join(map(ring.format_element, v)) for v in dirs.dirs)
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
        from . import vonstaudt
        if sub == "check":
            return vonstaudt.check_hypotheses(table).document(), text
        return vonstaudt.recover_semilinear(table).document(), text
    raise ParseError("missing subcommand; see --help")


def _run_bh(args):
    sub = args.bh_command
    if sub is None:
        raise ParseError("bh needs a subcommand: verify, search or geometric")
    from . import bh_sets
    ring = parse_ring_spec(args.ring)
    if sub == "verify":
        elements = _parse_vector(ring, args.set)
        candidate = bh_sets.BhCandidate(ring, elements)
        if args.h is not None:
            collision = bh_sets.verify_bh(candidate, args.h)
            doc = [("status", "ok")] if collision is None else collision.document()
            return doc, args.set
        return bh_sets.verify_properties(candidate).document(), args.set
    if sub == "search":
        found = bh_sets.search_bh(ring, args.n, args.budget)
        if found is None:
            return [("status", "none")], args.ring
        return found.document(), args.ring
    g = ring.parse_element(args.g)
    return bh_sets.construct_geometric(g, args.n).document(), args.ring


def _run_sharpness(args):
    sub = args.sharpness_command
    if sub is None:
        raise ParseError("sharpness needs a subcommand: bound, witness or certify")
    if sub == "bound":
        from . import recovery
        n = recovery.minimal_direction_count(args.n)
        return [("status", "ok"), ("N", str(n))], str(args.n)
    from . import bh_sets, sharpness
    ring = parse_ring_spec(args.ring)
    if sub == "witness":
        dirs = _parse_dirs(ring, args.n, args.dirs)
        return sharpness.lower_bound_witness(args.n, dirs, ring).document(), args.dirs
    elements = _parse_vector(ring, args.set)
    candidate = bh_sets.BhCandidate(ring, elements)
    return sharpness.certify_directions(args.n, ring, candidate).document(), args.set


def run_subcommand(argv) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit code, document text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        doc, digest_source = _run(args)
    except InconsistencyError as exc:
        return EXIT_INTERNAL, f"internal error: {exc}\n"
    except LinaffError as exc:
        # domain preconditions and malformed input are both usage errors here
        return EXIT_USAGE, f"error: {exc}\n"
    digest = hashlib.sha256(digest_source.encode("utf-8")).hexdigest()
    doc = doc + [("version", __version__), ("digest", digest)]
    if args.json:
        import json
        text = json.dumps(dict(doc), indent=None, separators=(", ", ": ")) + "\n"
    else:
        text = _text(doc)
    return _exit_code_for(doc), text


def main(argv=None) -> int:
    code, text = run_subcommand(sys.argv[1:] if argv is None else argv)
    stream = sys.stderr if code in (EXIT_USAGE, EXIT_INTERNAL) else sys.stdout
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
