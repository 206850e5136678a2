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

import functools
import hashlib
import sys
from itertools import chain, product

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
from .rings import Rationals, Ring, RingElem, format_elements, parse_ring_spec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_CANNOT_CANCEL = 3
EXIT_INTERNAL = 4

_NEGATIVE = {"non-affine", "collision", "non-regular-difference", "none", "violation", "witness"}


# ---------------------------------------------------------------------------
# function table parsing


def _strip(line: str) -> str:
    return line.partition("#")[0].strip()


def parse_function_table(text: str):
    """Parse a table/poly file into a TableOracle, MultiAffinePoly or VectorMapTable."""
    ring: Ring | None = None
    arity = None
    codomain_dim = None  # None for a scalar codomain
    rows = []  # (lineno, point_texts, value_texts)
    terms = []  # (lineno, coeff_text, index_texts)
    in_poly = False
    values = None  # the map body's values once the column pass decides it
    # the body runs from the first row that starts a line with "map "; once
    # the header before it is read, the column pass is offered the body's
    # text, and only if it declines is the body cut into lines
    at = text.find("\nmap ") + 1 or len(text)

    def body_lines():
        nonlocal values
        if ring is not None and arity is not None and not rows and not in_poly:
            values = _map_columns(ring, arity, codomain_dim, text[at:])
        if values is None:
            yield from text[at:].splitlines()

    for lineno, raw in enumerate(chain(text[:at].splitlines(), body_lines()), start=1):
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
        return TableOracle._of_codes(ring, arity, values)
    from . import vonstaudt
    try:
        return vonstaudt.VectorMapTable._of_codes(ring, arity, codomain_dim, values)
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

    `body` is the text from the line of the first map row on.  It is read
    here only if it is exactly the text `format_function_table` writes for
    the header's ring, arity and codomain, with "\n" or "\r\n" line ends and
    the final one optional: one row to a line in point-index order, each
    `map x_1 .. x_n -> y_1 .. y_e` with single spaces and every code written
    `str(code)`.  Any other body gets None, and the row pass, which reads
    every layout, decides it and names the error.

    Over a ring of q <= 10 elements every code is one digit, so every row
    has one length and `_digit_columns` reads the body by character columns;
    over a larger ring the cells pass below cuts it at " -> " and line ends.
    """
    if not ring.is_finite or arity < 1 or width == 0:
        return None
    if ring.size <= 10:
        return _digit_columns(ring.size, arity, width, body)
    if "\r" in body:
        body = body.replace("\r\n", "\n")
        if "\r" in body:
            return None
    # with no "\r" left, writing " -> " as "\r->\n" can be undone, so the
    # cells pin the body: a cell ends in "\r->" exactly when " -> " followed it
    cells = body.replace(" -> ", "\r->\n").split("\n")
    if cells[-1] == "":
        cells.pop()
    rows, q = len(cells) // 2, ring.size
    # the row count bounds q and q^arity before anything of that size is built
    if len(cells) != 2 * rows or arity >= rows.bit_length() or rows != q**arity:
        return None
    codes = _codes_by_text(ring)
    points = "map\r->"  # the point cells' text: each pass puts x_n, .., x_1 in front
    for _ in range(arity):
        points = "\n".join(points.replace("map", "map " + t) for t in codes)
    if "\n".join(cells[0::2]) != points:
        return None
    values, step = cells[1::2], 1
    if width is not None:  # each row's `width` codes, then a "\n" token
        values, step = " \n ".join(values).split(" "), width + 1
        if len(values) != rows * step - 1:
            return None
    try:
        cols = [list(map(codes.__getitem__, values[j::step])) for j in range(width or 1)]
    except KeyError:
        return None
    return cols[0] if width is None else list(zip(*cols))


def _digit_columns(q, arity, width, body):
    """`_map_columns` over q <= 10 elements: with every row `L` characters,
    ending as the first does, each column `body[k::L]` must be the writer's
    fixed character, its coordinate's digit pattern, or value digits below
    q, which one `translate` turns into codes; no row is cut out as a string."""
    e = width or 1
    span = 2 * arity + 2 * e + 6  # a row's length before its line end
    end = "\r\n" if body[span : span + 1] == "\r" else "\n"
    L = span + len(end)
    if len(body) % L:  # only the final line end may be missing
        body += end
    rows = len(body) // L
    # the row count bounds the arity before q^arity or the row's text is built
    if len(body) != rows * L or arity >= rows.bit_length() or rows != q**arity:
        return None
    row = "map " + "x " * arity + "-> " + " ".join("y" * e) + end  # x: point, y: value digit
    to_code = b"\xff" * 48 + bytes(range(q)) + b"\xff" * (208 - q)  # a non-digit is 255
    digits, point, cols = "0123456789"[:q], 0, []
    for k, c in enumerate(row):
        column = body[k::L]
        if c == "x":  # x_1 is the most significant coordinate
            block, point = q ** (arity - point - 1), point + 1
            if column != "".join(d * block for d in digits) * (rows // (q * block)):
                return None
        elif c == "y":
            cols.append(column.encode().translate(to_code))
            if 255 in cols[-1]:
                return None
        elif column != c * rows:
            return None
    return list(cols[0]) if width is None else list(zip(*cols))


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
        lines = [f"ring {oracle.ring.spec_text()}", f"arity {oracle.arity}", "poly"]
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


def _exit_code_for(doc: list[tuple[str, str]]) -> int:
    status = dict(doc).get("status", "ok")
    if status in ("cannot-cancel", "inconclusive"):
        return EXIT_CANNOT_CANCEL
    if status in _NEGATIVE:
        return EXIT_NEGATIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling


# Each subcommand path's options, in usage order: name -> (kind, default), the
# kind `int` (read by int()), `bool` (a flag), a tuple of the accepted values
# or a text value's metavar; an option whose default is _REQUIRED must be given.
_REQUIRED = object()
_INPUT = {"input": ("FILE", _REQUIRED)}
_RING = {"ring": ("RING", _REQUIRED)}
_N = {"n": (int, _REQUIRED)}
_CHOICE = {"family": (bool, False), "moment": ("VECTOR", None), "count": (int, None)}
_MODE = {"mode": (("exhaustive", "proof"), "exhaustive")}
_OPTIONS = {
    ("check-line",): {**_INPUT, "base": ("VECTOR", _REQUIRED), "dir": ("VECTOR", _REQUIRED)},
    ("psi",): {**_INPUT, "base": ("VECTOR", None)},
    ("recover",): {**_INPUT, "dirs": ("DIRS", None), **_CHOICE, **_MODE},
    ("directions",): {**_RING, **_N, **_CHOICE},
    ("bh", "verify"): {**_RING, "set": ("VECTOR", _REQUIRED), "h": (int, None)},
    ("bh", "search"): {**_RING, **_N, "budget": (int, 1_000_000)},
    ("bh", "geometric"): {**_RING, "g": ("ELEMENT", _REQUIRED), **_N},
    ("sharpness", "bound"): _N,
    ("sharpness", "witness"): {**_RING, **_N, "dirs": ("DIRS", _REQUIRED)},
    ("sharpness", "certify"): {**_RING, **_N, "set": ("VECTOR", _REQUIRED)},
    ("vonstaudt", "check"): _INPUT,
    ("vonstaudt", "recover"): _INPUT,
}


def _usage() -> str:
    lines = ["usage: linaff [--json] COMMAND [OPTIONS]; any --opt VALUE may be --opt=VALUE"]
    for path, options in _OPTIONS.items():
        words = ["  linaff", *path]
        for name, (kind, default) in options.items():
            word = f"--{name}"
            if kind is int:
                word += " INT"
            elif kind is not bool:
                word += " " + ("|".join(kind) if type(kind) is tuple else kind)
            words.append(word if default is _REQUIRED else f"[{word}]")
        lines.append(" ".join(words))
    lines += [
        "recover takes one of --dirs, --family and --moment; directions one of the last two.",
        "VECTOR is elements joined by ','; DIRS is vectors joined by ';'.",
        "exit codes: 0 yes, 1 usage or parse error, 2 no, 3 undecided, 4 internal error (a bug)",
    ]
    return "\n".join(lines) + "\n"


def _read_argv(argv):
    """(subcommand path, options, --json) read from argv against _OPTIONS, or None
    for the usage text.  The options hold every name of the path; a value follows
    its option as the next word, whatever it starts with, or after `=` in it."""
    words = list(argv)
    as_json = words[:1] == ["--json"]
    del words[:as_json]
    if not (words or as_json) or words[:1] == ["help"] or "--help" in words or "-h" in words:
        return None
    if not words:
        raise ParseError("missing subcommand; see --help")
    path = (words[0],)
    if path not in _OPTIONS:
        subs = [p[1] for p in _OPTIONS if p[0] == words[0]]
        if not subs:
            raise ParseError(f"unknown subcommand {words[0]!r}; see --help")
        path = tuple(words[:2])
        if path not in _OPTIONS:
            raise ParseError(f"{words[0]} needs a subcommand: {', '.join(subs[:-1])} or {subs[-1]}")
    options = _OPTIONS[path]
    values = {name: default for name, (_, default) in options.items()}
    rest = iter(words[len(path) :])
    for word in rest:
        flag, eq, value = word.partition("=")
        name = flag[2:] if flag[:2] == "--" else None
        if name not in options:
            raise ParseError(f"unrecognized argument {word!r} for {' '.join(path)}")
        kind = options[name][0]
        if kind is bool:
            if eq:
                raise ParseError(f"{flag} takes no value")
            values[name] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None:
                raise ParseError(f"{flag} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ParseError(f"{flag} needs an integer, got {value!r}") from None
        elif type(kind) is tuple and value not in kind:
            raise ParseError(f"{flag} must be {' or '.join(kind)}, got {value!r}")
        values[name] = value
    missing = [f"--{name}" for name, value in values.items() if value is _REQUIRED]
    if missing:
        raise ParseError(f"{' '.join(path)} needs {' and '.join(missing)}")
    return path, values, as_json


def _parse_vector(ring: Ring, text: str) -> tuple:
    """The codes of a comma-separated vector's elements, each read by `Ring.parse_code`."""
    try:
        codes = tuple(ring.parse_code(t) for t in map(str.strip, text.split(",")) if t)
    except LinaffError as exc:
        raise ParseError(f"bad vector {text!r}: {exc}") from None
    if not codes:
        raise ParseError(f"empty vector in {text!r}")
    return codes


def _parse_elements(ring: Ring, text: str) -> tuple:
    """The elements of a comma-separated vector, as `_parse_vector` reads their codes."""
    return tuple(RingElem(ring, c) for c in _parse_vector(ring, text))


def _read_input(path: str) -> str:
    """The file's UTF-8 text with "\r\n" and "\r" read as "\n", as text mode reads it."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _direction_set(opts, ring, arity):
    from . import recovery
    dirs_text, family, moment, count = map(opts.get, ("dirs", "family", "moment", "count"))
    if [dirs_text is not None, family, moment is not None].count(True) != 1:
        raise ParseError("give exactly one of --dirs, --family, --moment")
    if count is not None and moment is None:
        raise ParseError("--count needs --moment")
    if arity < 1:
        raise PreconditionError(f"arity must be >= 1, got {arity}")
    if dirs_text is not None:
        vectors = (_parse_vector(ring, chunk) for chunk in dirs_text.split(";") if chunk.strip())
        return recovery.DirectionSet(ring, arity, tuple(vectors))
    if family:
        return recovery.family_directions(ring, arity)
    nodes = _parse_vector(ring, moment)
    if len(nodes) != arity:
        raise ParseError(f"--moment needs {arity} node values")
    if count is None:
        count = recovery.minimal_direction_count(arity) if arity >= 2 else 1
    return recovery.moment_directions(ring, nodes, count)


# ---------------------------------------------------------------------------
# subcommand handlers


def _run(path, opts, text: str) -> list[tuple[str, str]]:
    """Dispatch; returns the document.  `text` is the --input file's text."""
    cmd, sub = path[0], path[-1]
    if path == ("sharpness", "bound"):
        from . import recovery
        n = recovery.minimal_direction_count(opts["n"])
        return [("status", "ok"), ("N", str(n))]
    if cmd == "directions":
        ring = parse_ring_spec(opts["ring"])
        dirs = _direction_set(opts, ring, opts["n"])
        rendered = ";".join(",".join(map(ring.format_code, v)) for v in dirs.dirs)
        return [("status", "ok"), ("dirs", rendered)]
    if cmd in ("bh", "sharpness"):
        from . import bh_sets
        ring = parse_ring_spec(opts["ring"])
        if sub == "search":
            found = bh_sets.search_bh(ring, opts["n"], opts["budget"])
            return [("status", "none")] if found is None else found.document()
        if sub == "geometric":
            g = ring.parse_element(opts["g"])
            return bh_sets.construct_geometric(g, opts["n"]).document()
        if sub == "witness":
            from . import sharpness
            dirs = _direction_set(opts, ring, opts["n"])
            return sharpness.lower_bound_witness(opts["n"], dirs, ring).document()
        candidate = bh_sets.BhCandidate(ring, _parse_elements(ring, opts["set"]))
        if sub == "certify":
            from . import sharpness
            return sharpness.certify_directions(opts["n"], ring, candidate).document()
        if opts["h"] is None:
            return bh_sets.verify_properties(candidate).document()
        collision = bh_sets.verify_bh(candidate, opts["h"])
        return [("status", "ok")] if collision is None else collision.document()
    oracle = parse_function_table(text)
    if cmd == "vonstaudt":
        if isinstance(oracle, FunctionOracle):
            raise ParseError("this subcommand needs a 'codomain vector' table")
        from . import vonstaudt
        if sub == "check":
            return vonstaudt.check_hypotheses(oracle).document()
        return vonstaudt.recover_semilinear(oracle).document()
    if not isinstance(oracle, FunctionOracle):
        raise ParseError("this subcommand needs a scalar-valued oracle")
    if cmd == "check-line":
        base = _parse_elements(oracle.ring, opts["base"])
        direction = _parse_elements(oracle.ring, opts["dir"])
        return line_affine_check(oracle, Line(base, direction)).document()
    if cmd == "psi":
        base = _parse_elements(oracle.ring, opts["base"]) if opts["base"] is not None else None
        return [("status", "ok"), ("coeffs", repr(psi_extract(oracle, base)))]
    from . import recovery
    dirs = _direction_set(opts, oracle.ring, oracle.arity)
    return recovery.recover(oracle, dirs, mode=opts["mode"]).document()


def run_subcommand(argv) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit code, document text).  `help`,
    `--help` and an empty argv return exit 0 and the usage text."""
    try:
        read = _read_argv(argv)
        if read is None:
            return EXIT_OK, _usage()
        path, opts, as_json = read
        text = _read_input(opts["input"]) if "input" in opts else ""
        doc = _run(path, opts, text) + [("version", __version__)]
    except InconsistencyError as exc:
        return EXIT_INTERNAL, f"internal error: {exc}\n"
    except LinaffError as exc:
        # domain preconditions and malformed input are both usage errors here
        return EXIT_USAGE, f"error: {exc}\n"
    # the request as a canonical argv, the input and the document (README, "Digest")
    body = _text(doc)
    request = [f"--{k}" if v is True else f"--{k}={v}" for k, v in opts.items()
               if v is not None and v is not False and k != "input"]
    framed = "".join([f"{len(part)}:{part}" for part in (*path, *request, text, body)])
    digest = hashlib.sha256(framed.encode()).hexdigest()
    if as_json:
        import json
        return _exit_code_for(doc), json.dumps(dict(doc, digest=digest)) + "\n"
    return _exit_code_for(doc), f"{body}digest: {digest}\n"


def main(argv=None) -> int:
    code, text = run_subcommand(sys.argv[1:] if argv is None else argv)
    stream = sys.stderr if code in (EXIT_USAGE, EXIT_INTERNAL) else sys.stdout
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
