import hashlib
import json
import random
import time
from itertools import product

import pytest

from linaff import (
    BhCandidate,
    DirectionSet,
    InconsistencyError,
    Line,
    LinaffError,
    MultiAffinePoly,
    ParseError,
    PrimeField,
    Rationals,
    TableOracle,
    VectorMapTable,
    Zmod,
    certify_directions,
    check_hypotheses,
    construct_geometric,
    line_affine_check,
    lower_bound_witness,
    parse_ring_spec,
    recover,
    recover_semilinear,
    search_bh,
    verify_bh,
    verify_properties,
)
from linaff.cli import (
    EXIT_CANNOT_CANCEL,
    EXIT_INTERNAL,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    _digit_columns,
    _map_columns,
    _read_input,
    format_function_table,
    main,
    parse_function_table,
    run_subcommand,
)
from linaff.recovery import Affine
from linaff.rings import PSI_13, RHO_STEPS

from helpers import all_points, emit_certificate, read_map_codes, table_from_poly


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _affine_z7_table():
    Z7 = Zmod(7)
    poly = MultiAffinePoly(Z7, 2, {0: Z7.one, 0b01: Z7.elem(3), 0b10: Z7.elem(2)})
    return format_function_table(table_from_poly(poly))


def _xy_z5_table():
    Z5 = Zmod(5)
    return format_function_table(table_from_poly(MultiAffinePoly(Z5, 2, {0b11: Z5.one})))


def _2xy_z4_table():
    Z4 = Zmod(4)
    return format_function_table(
        table_from_poly(MultiAffinePoly(Z4, 2, {0b11: Z4.elem(2)}))
    )


def _vector_table_text(func, fld, dim_in, dim_out):
    mapping = {v: func(v) for v in product(fld.elements(), repeat=dim_in)}
    return format_function_table(VectorMapTable(fld, dim_in, dim_out, mapping))


def test_parse_minimal_table():
    text = "\n".join(
        ["ring zmod 2", "arity 1", "codomain scalar", "map 0 -> 1", "map 1 -> 0"]
    )
    oracle = parse_function_table(text)
    assert isinstance(oracle, TableOracle)
    Z2 = Zmod(2)
    assert oracle.value((Z2.zero,)) == Z2.one


def test_parse_poly_body():
    text = "\n".join(
        [
            "ring rational",
            "arity 2",
            "poly",
            "term 3/1 1",
            "term 1/1 1 2",
            "term -2/3",
        ]
    )
    oracle = parse_function_table(text)
    assert isinstance(oracle, MultiAffinePoly)
    Q = Rationals()
    assert oracle.coeff(0) == Q.parse_element("-2/3")
    assert oracle.coeff(0b01) == Q.from_int(3)
    assert oracle.coeff(0b11) == Q.one


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_function_table("ring zmod 5\narity 2\nmap 0 0 -> 9")
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_function_table("ring zmod 5\nbogus 4")
    assert "line 2" in str(err.value)


def test_parse_rejects_duplicate_and_missing_points():
    base = ["ring zmod 2", "arity 1", "map 0 -> 0", "map 0 -> 1"]
    with pytest.raises(ParseError) as err:
        parse_function_table("\n".join(base))
    assert "duplicate" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_function_table("ring zmod 2\narity 1\nmap 0 -> 0")
    assert "missing the point 1" in str(err.value)


def test_parse_rejects_rational_tables():
    with pytest.raises(ParseError):
        parse_function_table("ring rational\narity 1\nmap 0 -> 0")


def test_roundtrip_table_and_poly():
    text = _affine_z7_table()
    oracle = parse_function_table(text)
    assert format_function_table(oracle) == text
    for pt in all_points(oracle.ring, 2):
        assert oracle.value(pt) == parse_function_table(format_function_table(oracle)).value(pt)

    Q = Rationals()
    poly = MultiAffinePoly(Q, 3, {0: Q.parse_element("1/2"), 0b101: Q.from_int(-4)})
    text = format_function_table(poly)
    again = parse_function_table(text)
    assert again == poly


def test_roundtrip_vector_table():
    F5 = PrimeField(5)
    text = _vector_table_text(lambda v: (v[1], v[0]), F5, 2, 2)
    table = parse_function_table(text)
    assert isinstance(table, VectorMapTable)
    assert format_function_table(table) == text


# The differential parse corpus: every layout of every table must read as
# the reference reader reads it, and every fault must give its exact error.


def _corpus_table(spec, n, e):
    """Header and in-order rows of a seeded map table; e is None for a scalar one."""
    rng = random.Random(f"{spec}:{n}:{e}")
    q = parse_ring_spec(spec).size
    rows = []
    for point in product(range(q), repeat=n):
        image = [rng.randrange(q) for _ in range(e or 1)]
        rows.append(f"map {' '.join(map(str, point))} -> {' '.join(map(str, image))}")
    codomain = "scalar" if e is None else f"vector {e}"
    return [f"ring {spec}", f"arity {n}", f"codomain {codomain}"], rows


def _shuffled(rows):
    rows = list(rows)
    random.Random(len(rows)).shuffle(rows)
    return rows


def _axes_swapped(rows):
    """The in-order rows stably sorted by x_2, so x_2 is most significant and
    x_1 next: each point column holds the right codes in the wrong order.
    An arity-1 row's third token is `->`, and its order stays."""

    def x_2(row):
        token = row.split()[2]
        return -1 if token == "->" else int(token)

    return sorted(rows, key=x_2)


def _recoded(row, prefix):
    """The row with every code written with a prefix: `03`, `+1`."""
    return " ".join(t if t in ("map", "->") else prefix + t for t in row.split())


_CORPUS_TABLES = [
    ("zmod 6", 2, None),
    ("prime 5", 3, None),
    ("gf 2 2 1 1", 2, None),
    ("zmod 4", 1, None),
    ("prime 5", 2, 2),
    ("gf 3 2 2 1", 2, 1),
    ("zmod 10", 2, None),
    ("prime 11", 2, None),
    ("prime 11", 2, 2),
]

_LAYOUTS = {
    "in-order": lambda h, r: "\n".join(h + r) + "\n",
    "shuffled": lambda h, r: "\n".join(h + _shuffled(r)) + "\n",
    "axes-swapped": lambda h, r: "\n".join(h + _axes_swapped(r)) + "\n",
    "no-final-newline": lambda h, r: "\n".join(h + _shuffled(r)),
    "blank-lines": lambda h, r: "\n\n".join(h + r[:3]) + "\n" + "\n\n".join(r[3:]) + "\n\n",
    "whitespace-lines": lambda h, r: "\n \t\n".join(h + _shuffled(r)) + "\n",
    "crlf": lambda h, r: "\r\n".join(h + r) + "\r\n",
    "crlf-shuffled": lambda h, r: "\r\n".join(h + _shuffled(r)) + "\r\n",
    "trailing-spaces": lambda h, r: "".join(line + " \t \n" for line in h + r),
    "indented-tabs": lambda h, r: "".join("  " + line.replace(" ", "\t") + "\n" for line in h + r),
    "comments": lambda h, r: "# table\n" + "\n".join(
        h + [row + " # row" if i % 5 == 0 else row for i, row in enumerate(r)] + ["# end"]
    ),
    "non-canonical-codes": lambda h, r: "\n".join(
        h + [_recoded(r[0], "+"), _recoded(r[1], "0")] + r[2:]
    ),
    "directive-after-rows": lambda h, r: "\n".join(h + _shuffled(r) + [h[1]]) + "\n",
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_parse_matches_the_reference_reader(layout):
    for spec, n, e in _CORPUS_TABLES:
        text = _LAYOUTS[layout](*_corpus_table(spec, n, e))
        parsed = parse_function_table(text)
        assert isinstance(parsed, TableOracle if e is None else VectorMapTable)
        assert parsed.codes == read_map_codes(text)


def test_column_pass_takes_crlf_line_ends():
    # "\r\n" ends one line for str.splitlines, so an in-order CRLF body is
    # read by columns; a lone "\r" also ends a line there, so it is declined
    for spec, n, e in _CORPUS_TABLES:
        ring = parse_ring_spec(spec)
        rows = _corpus_table(spec, n, e)[1]
        codes = _map_columns(ring, n, e, "\n".join(rows) + "\n")
        assert codes is not None
        assert _map_columns(ring, n, e, "\r\n".join(rows) + "\r\n") == codes
        assert _map_columns(ring, n, e, "\r\n".join(rows)) == codes
        lone = [rows[0].replace(" ->", "\r->")] + rows[1:]
        assert _map_columns(ring, n, e, "\r\n".join(lone) + "\r\n") is None


def test_digit_columns_read_every_one_digit_corpus_table():
    # over a ring of at most ten elements `_map_columns` hands the body to
    # the character-column reader alone, so a body it declines here would
    # fall through to the row pass unseen
    sizes = set()
    for spec, n, e in _CORPUS_TABLES:
        q = parse_ring_spec(spec).size
        if q > 10:
            continue
        sizes.add(q)
        header, rows = _corpus_table(spec, n, e)
        codes = read_map_codes("\n".join(header + rows))
        for end, final in product(["\n", "\r\n"], [True, False]):
            body = end.join(rows) + (end if final else "")
            assert _digit_columns(q, n, e, body) == codes, (spec, n, e, end, final)
    assert sizes == {4, 5, 6, 9, 10}


@pytest.mark.parametrize("arrow", ["\n", "\r->\n", "\r->\r\n"])
def test_column_pass_needs_each_arrow_on_its_row(arrow):
    # the column pass cuts a body at " -> " and at line ends; a body whose
    # values sit on lines of their own is not the writer's text, even where
    # its cells are, and the row pass names its first row
    header, rows = _corpus_table("zmod 4", 1, None)
    body = "\n".join(rows).replace(" -> ", arrow) + "\n"
    assert _map_columns(parse_ring_spec("zmod 4"), 1, None, body) is None
    with pytest.raises(ParseError, match=r"^line 4: map row needs '->'$"):
        parse_function_table("\n".join(header) + "\n" + body)


@pytest.mark.parametrize("at, extra, message", [
    (24, " 0", "line 28: expected 2 coordinates, got 3"),
    (7, " 0 0 0", "line 11: expected 2 coordinates, got 5"),
])
def test_column_pass_needs_each_vector_value_whole(at, extra, message):
    # a vector row's codes are read as one token run; a row of e + 1 codes
    # at the end, or of 2e + 1 codes anywhere, keeps every row end in step,
    # and only the run's length tells the table from the writer's
    header, rows = _corpus_table("prime 5", 2, 2)
    rows[at] += extra
    body = "\n".join(rows) + "\n"
    assert _map_columns(parse_ring_spec("prime 5"), 2, 2, body) is None
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_function_table("\n".join(header) + "\n" + body)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "ring zmod 100000000000\narity 1\ncodomain scalar\nmap 0 -> 0\nmap 1 -> 1\n",
            "table is missing the point 2",
        ),
        (
            "ring prime 11\narity 16\ncodomain scalar\nmap " + "0 " * 16 + "-> 0\n",
            "table is missing the point " + "0 " * 15 + "1",
        ),
        (
            "ring zmod 100000000000\narity 100000000\ncodomain scalar\nmap 0 -> 0\nmap 1 -> 1\n",
            "line 4: expected 100000000 coordinates, got 1",
        ),
        (
            "ring prime 7\narity 100000000\ncodomain scalar\nmap 0 -> 0\nmap 1 -> 1\n",
            "line 4: expected 100000000 coordinates, got 1",
        ),
    ],
)
def test_a_short_table_over_a_large_space_is_refused_at_once(tmp_path, text, message):
    # both column readers compare the row count with q^arity before they
    # build anything of size q or q^arity, such as the code dict of Z/10^11,
    # and bound the arity by the row count before they compute q^arity
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_function_table(text)
    assert str(err.value) == message
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    path = _write(tmp_path, "short.tbl", text)
    assert run_subcommand(["recover", "--input", path, "--dirs", "1"]) == (EXIT_USAGE, f"error: {message}\n")
    assert time.perf_counter() - start < 1.0


_Z5_HEADER, _Z5_ROWS = ["ring zmod 5", "arity 2", "codomain scalar"], [
    f"map {x} {y} -> {(x + 2 * y) % 5}" for x in range(5) for y in range(5)
]
_F5_HEADER, _F5_ROWS = _corpus_table("prime 5", 2, 2)


def _faulty(at, *lines, rows=_Z5_ROWS, header=_Z5_HEADER):
    """The table with row `at` replaced by `lines`; row 17 sits on line 21."""
    return "\n".join(header + rows[:at] + list(lines) + rows[at + 1 :]) + "\n"


def _appended(*lines):
    return "\n".join(_Z5_HEADER + _Z5_ROWS + list(lines)) + "\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (_faulty(17, "map 3 2 -> 9"), "line 21: encoding 9 out of range for zmod 5"),
        (_faulty(17, "map 3 2 -> -1"), "line 21: encoding -1 out of range for zmod 5"),
        (_faulty(17, "map 3 2 -> x"), "line 21: invalid literal for int() with base 10: 'x'"),
        (_faulty(17, "map 3 5 -> 2"), "line 21: encoding 5 out of range for zmod 5"),
        (_faulty(17, "map 3 -> 2"), "line 21: expected 2 coordinates, got 1"),
        (_faulty(17, "map 3 2 0 -> 2"), "line 21: expected 2 coordinates, got 3"),
        (_faulty(17, "map 3 2 -> 2 2"), "line 21: expected 1 coordinates, got 2"),
        (_faulty(17, "map 3 2 ->"), "line 21: expected 1 coordinates, got 0"),
        (_faulty(17, "map 3 2 2"), "line 21: map row needs '->'"),
        (_faulty(17, "map 3 2 => 2"), "line 21: map row needs '->'"),
        (_faulty(17, "mapx 3 2 -> 2"), "line 21: unrecognized directive 'mapx'"),
        (_faulty(17, "map 3 2 # -> 2"), "line 21: map row needs '->'"),
        (_faulty(17, "map 3 1 -> 1"), "line 21: duplicate point 3 1"),
        (_faulty(3, "map 0 0 -> 0", rows=_Z5_ROWS[::-1]), "line 28: duplicate point 0 0"),
        (_faulty(17), "table is missing the point 3 2"),
        (_faulty(0, rows=_Z5_ROWS[::-1]), "table is missing the point 4 4"),
        (_faulty(17, "map 3 2 ->", "2"), "line 22: unrecognized directive '2'"),
        (_faulty(17, "map 3", "2 -> 2"), "line 21: map row needs '->'"),
        (_faulty(17, _Z5_ROWS[17] + " " + _Z5_ROWS[18], rows=_Z5_ROWS[:18] + _Z5_ROWS[19:]),
         "line 21: expected 1 coordinates, got 6"),
        (_faulty(17, _Z5_ROWS[17] + " map 3 3", "-> 4", rows=_Z5_ROWS[:18] + _Z5_ROWS[19:]),
         "line 22: unrecognized directive '->'"),
        (_appended("poly"), "cannot mix map rows with a poly body"),
        (_appended("codomain vector 2"), "line 4: expected 2 coordinates, got 1"),
        (_appended("ring zmod 3"), "line 6: encoding 4 out of range for zmod 3"),
        (_appended("term 1"), "line 29: unrecognized directive 'term'"),
        (_faulty(17, "map 3 2 -> 1", rows=_F5_ROWS, header=_F5_HEADER),
         "line 21: expected 2 coordinates, got 1"),
        (_faulty(17, "map 3 2 -> 1 5", rows=_F5_ROWS, header=_F5_HEADER),
         "line 21: encoding 5 out of range for prime 5"),
    ],
    ids=["value-9", "value-negative", "value-malformed", "coordinate-out-of-range",
         "too-few-coordinates", "too-many-coordinates", "two-values", "no-value",
         "missing-arrow", "wrong-arrow", "misspelled-map", "comment-hides-arrow",
         "duplicate-point", "duplicate-point-shuffled", "missing-point",
         "missing-point-shuffled", "row-split-after-arrow", "row-split-before-arrow",
         "two-rows-on-one-line", "row-split-and-merged", "poly-after-rows",
         "codomain-after-rows", "ring-after-rows", "term-after-rows", "vector-one-value",
         "vector-value-out-of-range"],
)
def test_parse_errors_name_the_fault(text, message):
    with pytest.raises(LinaffError) as err:
        parse_function_table(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("ring zmod 3\narity ²\n", "line 2: arity needs one integer"),
        ("ring zmod 3\narity 1\ncodomain vector ²\n",
         "line 3: codomain must be 'scalar' or 'vector <e>'"),
        ("ring zmod 3\narity 1\npoly\nterm 1 ²\n", "line 4: variable index '²' out of range 1..1"),
    ],
    ids=["arity", "codomain-vector", "term-index"],
)
def test_digits_that_int_rejects_are_parse_errors(tmp_path, text, message):
    # str.isdigit() accepts a superscript two, which int() rejects
    path = _write(tmp_path, "f.tbl", text)
    assert run_subcommand(["recover", "--input", path, "--dirs", "1"]) == (
        EXIT_USAGE,
        f"error: {message}\n",
    )


def test_recover_cli_affine(tmp_path):
    path = _write(tmp_path, "affine.tbl", _affine_z7_table())
    code, text = run_subcommand(["recover", "--input", path, "--dirs", "1,1"])
    assert code == EXIT_OK
    assert text.startswith("status: affine\ncoeffs: 1 3 2\n")


def test_recover_cli_non_affine(tmp_path):
    path = _write(tmp_path, "xy.tbl", _xy_z5_table())
    code, text = run_subcommand(["recover", "--input", path, "--dirs", "1,1"])
    assert code == EXIT_NEGATIVE
    assert "status: non-affine" in text


def test_recover_cli_cannot_cancel(tmp_path):
    path = _write(tmp_path, "f2xy.tbl", _2xy_z4_table())
    code, text = run_subcommand(["recover", "--input", path, "--dirs", "1,1"])
    assert code == EXIT_CANNOT_CANCEL
    assert "status: cannot-cancel" in text
    assert "degree: 2" in text
    assert "det: 2" in text


def test_recover_cli_cancels_across_the_primes_of_m(tmp_path):
    Z6 = Zmod(6)
    poly = MultiAffinePoly(Z6, 2, {0: Z6.one, 0b01: Z6.elem(2), 0b10: Z6.elem(5)})
    path = _write(tmp_path, "z6.tbl", format_function_table(table_from_poly(poly)))
    code, text = run_subcommand(["recover", "--input", path, "--dirs", "1,3;1,2"])
    assert code == EXIT_OK
    assert text.startswith("status: affine\ncoeffs: 1 2 5\n")


def test_exit_code_matrix(tmp_path):
    affine = _write(tmp_path, "a.tbl", _affine_z7_table())
    xy = _write(tmp_path, "b.tbl", _xy_z5_table())
    zdiv = _write(tmp_path, "c.tbl", _2xy_z4_table())
    F5 = PrimeField(5)
    good_map = _write(
        tmp_path,
        "m.tbl",
        _vector_table_text(lambda v: (v[0] + F5.one, v[1]), F5, 2, 2),
    )
    const_map = _write(
        tmp_path, "k.tbl", _vector_table_text(lambda v: (F5.zero, F5.zero), F5, 2, 2)
    )
    bad = _write(tmp_path, "bad.tbl", "ring zmod 2\narity 1\nmap 0 -> 3")
    cases = [
        (["recover", "--input", affine, "--dirs", "1,1"], EXIT_OK),
        (["recover", "--input", xy, "--dirs", "1,1"], EXIT_NEGATIVE),
        (["recover", "--input", zdiv, "--dirs", "1,1"], EXIT_CANNOT_CANCEL),
        (["recover", "--input", bad, "--dirs", "1,1"], EXIT_USAGE),
        (["check-line", "--input", affine, "--base", "0,0", "--dir", "1,1"], EXIT_OK),
        (["check-line", "--input", xy, "--base", "0,0", "--dir", "1,1"], EXIT_NEGATIVE),
        (["psi", "--input", affine], EXIT_OK),
        (["directions", "--ring", "prime 5", "--n", "3", "--family"], EXIT_OK),
        (["bh", "verify", "--ring", "rational", "--set", "1,2,3,6", "--h", "2"], EXIT_NEGATIVE),
        (["bh", "verify", "--ring", "prime 5", "--set", "1,2,4"], EXIT_OK),
        (["bh", "verify", "--ring", "zmod 6", "--set", "1,2,3"], EXIT_NEGATIVE),
        (["bh", "search", "--ring", "zmod 4", "--n", "3"], EXIT_NEGATIVE),
        (["bh", "search", "--ring", "prime 5", "--n", "3"], EXIT_OK),
        (["bh", "search", "--ring", "zmod 169", "--n", "5", "--budget", "1"], EXIT_CANNOT_CANCEL),
        # F_5 has no 4-element set, so Z/35 has none: decided before the budget runs out
        (["bh", "search", "--ring", "zmod 35", "--n", "4", "--budget", "1"], EXIT_NEGATIVE),
        (["bh", "geometric", "--ring", "prime 17", "--g", "3", "--n", "4"], EXIT_OK),
        (["bh", "geometric", "--ring", "prime 5", "--g", "4", "--n", "3"], EXIT_USAGE),
        (["sharpness", "bound", "--n", "4"], EXIT_OK),
        (["sharpness", "bound", "--n", "1"], EXIT_USAGE),
        (
            ["sharpness", "witness", "--ring", "prime 7", "--n", "3", "--dirs", "1,1,1;1,2,4"],
            EXIT_NEGATIVE,
        ),
        (
            ["sharpness", "certify", "--ring", "prime 5", "--n", "3", "--set", "1,2,4"],
            EXIT_OK,
        ),
        (
            ["sharpness", "certify", "--ring", "zmod 6", "--n", "3", "--set", "1,2,3"],
            EXIT_USAGE,
        ),
        (["vonstaudt", "check", "--input", good_map], EXIT_OK),
        (["vonstaudt", "check", "--input", const_map], EXIT_NEGATIVE),
        (["vonstaudt", "recover", "--input", good_map], EXIT_OK),
        (["nonsense"], EXIT_USAGE),
        # an empty argv prints the usage text, as help does
        ([], EXIT_OK),
    ]
    for argv, expected in cases:
        code, _ = run_subcommand(argv)
        assert code == expected, f"{argv} -> {code}, wanted {expected}"


def test_sharpness_bound_document():
    code, text = run_subcommand(["sharpness", "bound", "--n", "4"])
    assert code == EXIT_OK
    assert "N: 6" in text


def test_documents_are_deterministic(tmp_path):
    path = _write(tmp_path, "affine.tbl", _affine_z7_table())
    argv = ["recover", "--input", path, "--dirs", "1,1"]
    first = run_subcommand(argv)
    second = run_subcommand(argv)
    assert first == second


def test_json_mirrors_text(tmp_path):
    path = _write(tmp_path, "affine.tbl", _affine_z7_table())
    code_t, text = run_subcommand(["recover", "--input", path, "--dirs", "1,1"])
    code_j, blob = run_subcommand(["--json", "recover", "--input", path, "--dirs", "1,1"])
    assert code_t == code_j
    parsed = json.loads(blob)
    from_text = dict(
        line.split(": ", 1) for line in text.strip().splitlines()
    )
    assert parsed == from_text
    assert list(parsed) == [line.split(": ", 1)[0] for line in text.strip().splitlines()]


def test_bh_verify_over_a_strong_pseudoprime_modulus():
    # psi_12 = 399165290221 * 798330580441 passes the strong test to every prime
    # base up to 37; 3 - 3 * 399165290222 shares the factor 399165290221 with it
    psi12 = "318665857834031151167461"
    argv = ["bh", "verify", "--ring", f"zmod {psi12}", "--set", "1,399165290222,3"]
    code, text = run_subcommand(argv)
    assert code == EXIT_NEGATIVE
    assert text.startswith(
        "status: non-regular-difference\nwitness: 318665857832833655296798\n"
        "left: 1 3\nright: 399165290222 3\n"
    )
    argv[3] = f"prime {psi12}"
    assert run_subcommand(argv) == (EXIT_USAGE, f"error: {psi12} is not prime\n")


def test_primes_from_psi_13_on_are_usage_errors():
    # psi_13 passes the strong test to every base 2..41; taken for a field,
    # it would make {1, a, b} a B_h set although a * b = 0
    a, b = 1287836182261, 2575672364521
    psi13 = a * b
    assert psi13 == 3317044064679887385961981
    argv = ["bh", "verify", "--ring", f"prime {psi13}", "--set", f"1,{a},{b}"]
    refusal = "is too large to certify as prime"
    assert run_subcommand(argv) == (
        EXIT_USAGE, f"error: {psi13} {refusal} (limit {psi13 - 1})\n"
    )
    # zmod 5 * psi_13 is a ring (5 divides it), but factoring it meets psi_13
    argv = ["bh", "verify", "--ring", f"zmod {5 * psi13}", "--set", "1,2,3"]
    assert run_subcommand(argv) == (
        EXIT_USAGE, f"error: {psi13} {refusal} (limit {psi13 - 1})\n"
    )
    # a composite verdict is a proof at any size
    for m in (2**90, 10**30):
        argv = ["directions", "--ring", f"zmod {m}", "--n", "2", "--family"]
        code, text = run_subcommand(argv)
        assert code == EXIT_OK and text.startswith("status: ok\ndirs: 1,1\n")


def test_help_returns_the_usage_text():
    # help is an answer like any other: it must not exit the process
    code, usage = run_subcommand(["--help"])
    assert code == EXIT_OK and usage.startswith("usage: linaff [--json] COMMAND")
    for argv in (["help"], [], ["-h"], ["--json", "help"], ["recover", "--help"]):
        assert run_subcommand(argv) == (EXIT_OK, usage)
    assert "  linaff recover --input FILE [--dirs DIRS] [--family]" in usage
    assert "[--mode exhaustive|proof]" in usage and "linaff bh search" in usage


def test_main_writes_help_to_stdout(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr()
    assert out.out == run_subcommand(["help"])[1] and out.err == ""


def test_option_values_may_follow_an_equals_sign(tmp_path):
    path = _write(tmp_path, "affine.tbl", _affine_z7_table())
    spaced = run_subcommand(["recover", "--input", path, "--dirs", "1,1"])
    assert spaced[0] == EXIT_OK
    assert run_subcommand(["recover", "--input", path, "--dirs=1,1"]) == spaced
    assert run_subcommand(["recover", f"--input={path}", "--dirs=1,1", "--mode=exhaustive"]) == spaced
    # a value that starts with '-' reaches the domain checks either way
    for budget in (["--budget", "-1"], ["--budget=-1"]):
        argv = ["bh", "search", "--ring", "prime 5", "--n", "3", *budget]
        assert run_subcommand(argv) == (EXIT_USAGE, "error: budget must be >= 1, got -1\n")
    moment = ["directions", "--ring", "rational", "--n", "2", "--count", "2", "--moment"]
    assert run_subcommand(moment + ["-1/2,3"]) == run_subcommand([*moment[:-1], "--moment=-1/2,3"])
    assert run_subcommand(moment + ["-1/2,3"])[1].startswith("status: ok\ndirs: 1,1;-1/2,3\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["recover", "--input", "f", "--dirs", "1,1", "--bogus"],
         "unrecognized argument '--bogus' for recover"),
        # no prefix abbreviations
        (["recover", "--inp", "f", "--dirs", "1,1"], "unrecognized argument '--inp' for recover"),
        (["recover", "--input", "f", "stray"], "unrecognized argument 'stray' for recover"),
        (["recover", "--input", "f", "--json"], "unrecognized argument '--json' for recover"),
        (["recover", "--dirs", "1,1"], "recover needs --input"),
        (["sharpness", "witness", "--ring", "prime 5"], "sharpness witness needs --n and --dirs"),
        (["recover", "--input", "f", "--mode", "x"], "--mode must be exhaustive or proof, got 'x'"),
        (["directions", "--ring", "prime 5", "--n", "x", "--family"],
         "--n needs an integer, got 'x'"),
        (["bh", "verify", "--ring", "prime 5", "--set", "1,2", "--h=1e3"],
         "--h needs an integer, got '1e3'"),
        (["recover", "--input", "f", "--family=yes"], "--family takes no value"),
        (["recover", "--input"], "--input needs a value"),
        (["bh"], "bh needs a subcommand: verify, search or geometric"),
        (["vonstaudt", "bogus"], "vonstaudt needs a subcommand: check or recover"),
        (["nonsense"], "unknown subcommand 'nonsense'; see --help"),
        (["--json"], "missing subcommand; see --help"),
        (["--json", "--json", "psi"], "unknown subcommand '--json'; see --help"),
    ],
    ids=["unknown", "prefix", "positional", "json-after", "missing", "missing-two", "mode",
         "int", "int-equals", "flag-value", "no-value", "bh", "vonstaudt", "command", "json-only",
         "json-twice"],
)
def test_bad_argv_is_one_usage_error_line(argv, message):
    assert run_subcommand(argv) == (EXIT_USAGE, f"error: {message}\n")


_RATIONAL_POLY = "ring rational\narity 2\npoly\nterm 1 1\nterm 2 2\n"


@pytest.mark.parametrize(
    "argv, body",
    [
        (["bh", "geometric", "--ring", "prime 17", "--g", "abc", "--n", "4"], None),
        (["bh", "geometric", "--ring", "gf 3 2 1 0", "--g", "zz", "--n", "3"], None),
        (["bh", "geometric", "--ring", "rational", "--g", "1/0", "--n", "3"], None),
        (["bh", "verify", "--ring", "rational", "--set", "1/0,2,3"], None),
        (["sharpness", "certify", "--ring", "rational", "--n", "3", "--set", "1,2,1/0"], None),
        (["recover", "--input", "FILE", "--dirs", "1/0,1"], _RATIONAL_POLY),
        (["recover", "--input", "FILE", "--moment", "1/0,2"], _RATIONAL_POLY),
        (["recover", "--input", "FILE", "--dirs", "1,1"], _RATIONAL_POLY + "term 1/0 1 2\n"),
    ],
    ids=["zmod-g", "gf-g", "rational-g", "set", "certify-set", "dirs", "moment", "poly-term"],
)
def test_malformed_ring_literals_are_usage_errors(tmp_path, argv, body):
    if body is not None:
        path = _write(tmp_path, "f.poly", body)
        argv = [path if a == "FILE" else a for a in argv]
    code, text = run_subcommand(argv)
    assert code == EXIT_USAGE
    assert text.startswith("error: ") and text.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["directions", "--ring", "prime 5", "--n", "40", "--family"],
         "arity must be at most 16, got 40"),
        (["directions", "--ring", "prime 5", "--n", "-1", "--moment", "1"],
         "arity must be >= 1, got -1"),
        (["recover", "--input", "FILE", "--dirs", "1,1,1"],
         "direction (1, 1, 1) has arity 3, expected 2"),
        (["directions", "--ring", "prime 5", "--n", "40", "--moment", ",".join(["1"] * 40)],
         "arity must be at most 16, got 40"),
        (["directions", "--ring", "prime 5", "--n", "3", "--moment", "1,2,3",
          "--count", "100000000"],
         "direction count must be at most 12870, got 100000000"),
        (["sharpness", "witness", "--ring", "prime 5", "--n", "0", "--dirs", "1"],
         "arity must be >= 1, got 0"),
        (["sharpness", "witness", "--ring", "prime 5", "--n", "-2", "--dirs", "1"],
         "arity must be >= 1, got -2"),
        (["sharpness", "witness", "--ring", "rational", "--n", "40",
          "--dirs", ",".join(["1"] * 40)],
         "arity must be at most 16, got 40"),
        (["sharpness", "certify", "--ring", "prime 101", "--n", "16",
          "--set", ",".join(str(v) for v in range(1, 17))],
         "node set fails the B_h property bundle: "
         "status: collision; left: 1 6; right: 2 3; product: 6"),
        (["sharpness", "certify", "--ring", "zmod 6", "--n", "3", "--set", "1,2,3"],
         "node set fails the B_h property bundle: "
         "status: non-regular-difference; witness: 2; left: 1 2; right: 2 3"),
        (["sharpness", "certify", "--ring", "prime 101", "--n", "40",
          "--set", ",".join(str(v) for v in range(1, 41))],
         "node set must have at most 16 elements, got 40"),
        (["bh", "verify", "--ring", "rational", "--set",
          "2,3,5,7,11,13,17,19,23,29,31,37,41,43,47,53,59,61,67,71,73,79,83,89"],
         "node set must have at most 16 elements, got 24"),
        (["bh", "geometric", "--ring", "rational", "--g", "7", "--n", "17"],
         "node set must have at most 16 elements, got 17"),
        (["sharpness", "bound", "--n", "100000"], "arity must be at most 16, got 100000"),
        (["bh", "geometric", "--ring", "rational", "--g", "7" * 3000, "--n", "3"],
         "rational of about 6000 digits is too long to print"),
        (["bh", "geometric", "--ring", "rational", "--g", "1", "--n", "16"],
         "g^1 - 1 is not regular"),
        (["bh", "geometric", "--ring", "rational", "--g", "-1", "--n", "16"],
         "g^2 - 1 is not regular"),
        (["bh", "geometric", "--ring", "rational", "--g", "2", "--n", "16"],
         "rational of about 4933 digits is too long to print"),
        (["recover", "--input", "FILE", "--family", "--count", "3"], "--count needs --moment"),
        (["recover", "--input", "FILE", "--dirs", "1,1", "--count", "3"], "--count needs --moment"),
        (["directions", "--ring", "prime 5", "--n", "3", "--family", "--count", "3"],
         "--count needs --moment"),
        (["recover", "--input", "FILE", "--dirs", "0,0"], "directions must be nonzero"),
        (["recover", "--input", "FILE", "--dirs", "1,1;0,0"], "directions must be nonzero"),
        (["recover", "--input", "FILE", "--dirs", "7,1"],
         "bad vector '7,1': encoding 7 out of range for zmod 7"),
        (["recover", "--input", "FILE", "--family", "--moment", ""],
         "give exactly one of --dirs, --family, --moment"),
        (["recover", "--input", "FILE", "--family", "--dirs", ""],
         "give exactly one of --dirs, --family, --moment"),
        (["recover", "--input", "FILE", "--family", "--moment="],
         "give exactly one of --dirs, --family, --moment"),
        (["recover", "--input", "FILE", "--dirs", "", "--moment", "1,2"],
         "give exactly one of --dirs, --family, --moment"),
        (["directions", "--ring", "prime 5", "--n", "2", "--family", "--moment", ""],
         "give exactly one of --dirs, --family, --moment"),
        (["recover", "--input", "FILE", "--moment", ""], "empty vector in ''"),
        (["recover", "--input", "FILE", "--moment", "", "--count", "2"], "empty vector in ''"),
        (["directions", "--ring", "prime 5", "--n", "2", "--moment", ""], "empty vector in ''"),
        # an empty --base is given too: psi reads it as check-line does, not as the origin
        (["psi", "--input", "FILE", "--base", ""], "empty vector in ''"),
        (["psi", "--input", "FILE", "--base="], "empty vector in ''"),
        (["check-line", "--input", "FILE", "--base", "", "--dir", "1,1"], "empty vector in ''"),
    ],
    ids=["family-n40", "moment-n-1", "dirs-arity", "moment-n40", "moment-count",
         "witness-n0", "witness-n-2", "witness-n40", "certify-collision", "certify-difference",
         "certify-n40", "verify-24-primes", "geometric-n17", "bound-n100000",
         "geometric-3000-digits", "geometric-rational-g1", "geometric-rational-g-1",
         "geometric-rational-g2-n16", "recover-family-count", "recover-dirs-count",
         "directions-family-count", "dirs-zero", "dirs-second-zero", "dirs-out-of-range",
         "family-empty-moment", "family-empty-dirs", "family-empty-moment-equals",
         "empty-dirs-moment", "directions-family-empty-moment", "empty-moment",
         "empty-moment-count", "directions-empty-moment", "psi-empty-base",
         "psi-empty-base-equals", "check-line-empty-base"],
)
def test_direction_set_errors(tmp_path, argv, message):
    path = _write(tmp_path, "affine.tbl", _affine_z7_table())
    argv = [path if a == "FILE" else a for a in argv]
    start = time.perf_counter()
    code, text = run_subcommand(argv)
    assert time.perf_counter() - start < 1.0
    assert (code, text) == (EXIT_USAGE, f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, answer, seconds",
    [
        (["bh", "search", "--ring", "prime 61", "--n", "5", "--budget", "200000"],
         (EXIT_OK, "status: ok\nset: 1 2 3 4 5\n"), 1.0),
        (["bh", "search", "--ring", "zmod 30", "--n", "4"], (EXIT_NEGATIVE, "status: none\n"), 0.5),
        (["sharpness", "certify", "--ring", "rational", "--n", "8",
          "--set", "2,3,5,7,11,13,17,19"], (EXIT_OK, "status: ok\n"), 1.0),
        (["sharpness", "certify", "--ring", "rational", "--n", "14",
          "--set", "2,3,5,7,11,13,17,19,23,29,31,37,41,43"], (EXIT_OK, "status: ok\n"), 2.0),
    ],
    ids=["search-prime61", "search-zmod30", "certify-rational-n8", "certify-rational-n14"],
)
def test_answers_decided_by_the_bh_maths_are_fast(argv, answer, seconds):
    start = time.perf_counter()
    code, text = run_subcommand(argv)
    assert time.perf_counter() - start < seconds
    assert (code, text[: text.index("version:")]) == answer


# Pollard rho needs about 1.5 * 10^9 steps for the least prime of this m,
# and its cofactor 2^89 - 1 is a prime past psi_13, which is_prime refuses
_MERSENNE_PRODUCT = (2**61 - 1) * (2**89 - 1)


@pytest.mark.parametrize(
    "m", [_MERSENNE_PRODUCT, 5 * PSI_13, 2**89 - 1],
    ids=["mersenne-product", "5-psi13", "mersenne-89"],
)
def test_recover_over_zmod_answers_without_factoring_the_modulus(tmp_path, m):
    # the consistency check's kernel splits m by gcds where a pivot is not a
    # unit, and never factors it; nor does it ask whether m is prime, so a
    # prime past psi_13, which is_prime cannot certify, answers too
    path = _write(tmp_path, "x1x2.poly", f"ring zmod {m}\narity 2\npoly\nterm 1 1 2\n")
    start = time.perf_counter()
    code, text = run_subcommand(["recover", "--input", path, "--dirs", "1,0"])
    assert time.perf_counter() - start < 1.0
    assert (code, text[: text.index("version:")]) == (
        EXIT_NEGATIVE, "status: non-affine\nwitness: coeff 1,2 = 1\ndegree: 2\n"
    )


def test_bh_verify_refuses_a_modulus_rho_cannot_split_within_its_budget():
    # B_h sets key products by residue mod each prime of m, so they factor m
    start = time.perf_counter()
    code, text = run_subcommand(["bh", "verify", "--ring", f"zmod {_MERSENNE_PRODUCT}", "--set", "1,2,3"])
    assert time.perf_counter() - start < 3.0
    assert (code, text) == (
        EXIT_USAGE,
        f"error: cannot factor {_MERSENNE_PRODUCT} within {RHO_STEPS} Pollard rho steps\n",
    )


def test_bh_verify_refuses_a_prime_modulus_past_psi_13():
    # zmod 2^89 - 1 parses, and recover answers over it (above), but a B_h
    # set asks whether the ring is a field, which is_prime cannot certify
    m = 2**89 - 1
    code, text = run_subcommand(["bh", "verify", "--ring", f"zmod {m}", "--set", "1,2,3"])
    assert (code, text) == (
        EXIT_USAGE, f"error: {m} is too large to certify as prime (limit {PSI_13 - 1})\n"
    )


def test_parsed_tables_equal_the_checked_constructions():
    # the parser hands the codes it builds to the tables' private
    # constructors, which skip from_codes' range scan: every layout, read
    # by the column pass or the row pass, must still give the table that
    # from_codes and the dict constructor build from the same values
    Z6, F5 = Zmod(6), PrimeField(5)
    scalar = {p: Z6.from_int(3 * p[0].value + 5 * p[1].value * p[0].value + 1)
              for p in product(Z6.elements(), repeat=2)}
    vector = {p: (p[1], p[0] + p[1], p[0] * p[0]) for p in product(F5.elements(), repeat=2)}
    tables = [
        (TableOracle(Z6, 2, scalar),
         TableOracle.from_codes(Z6, 2, [v.value for v in scalar.values()])),
        (VectorMapTable(F5, 2, 3, vector),
         VectorMapTable.from_codes(F5, 2, 3, [tuple(c.value for c in v) for v in vector.values()])),
    ]
    for from_dict, from_codes in tables:
        assert from_dict == from_codes
        text = format_function_table(from_dict)
        at = text.index("map ")
        rows = text[at:].splitlines()
        layouts = {
            "canonical": text,
            "crlf": text.replace("\n", "\r\n"),
            "shuffled": text[:at] + "\n".join(random.Random(3).sample(rows, len(rows))) + "\n",
            "tabs": text.replace(" ", "\t"),
        }
        for name, layout in layouts.items():
            parsed = parse_function_table(layout)
            assert type(parsed) is type(from_dict) and parsed == from_dict, name


def test_emit_certificate_examples():
    Z7 = Zmod(7)
    cert = Affine(Z7.one, (Z7.elem(3), Z7.elem(2)))
    assert emit_certificate(cert) == "status: affine\ncoeffs: 1 3 2\n"
    from linaff import BhCandidate, verify_bh

    Q = Rationals()
    collision = verify_bh(BhCandidate(Q, tuple(Q.from_int(v) for v in (1, 2, 3, 6))), 2)
    assert emit_certificate(collision) == (
        "status: collision\nleft: 1 6\nright: 2 3\nproduct: 6\n"
    )


def _set(spec, text):
    ring = parse_ring_spec(spec)
    return BhCandidate(ring, tuple(ring.parse_element(t) for t in text.split(",")))


def _vec(ring, text):
    return tuple(ring.parse_element(t) for t in text.split(","))


def _dirs(ring, arity, text):
    codes = (tuple(map(ring.parse_code, v.split(","))) for v in text.split(";"))
    return DirectionSet(ring, arity, tuple(codes))


def _line(ring, base, direction):
    return Line(_vec(ring, base), _vec(ring, direction))


_F5 = PrimeField(5)
_GOOD_MAP = _vector_table_text(lambda v: (v[0] + _F5.one, v[1]), _F5, 2, 2)
_CONST_MAP = _vector_table_text(lambda v: (_F5.zero, _F5.zero), _F5, 2, 2)


@pytest.mark.parametrize(
    "argv, body, result",
    [
        (["recover", "--input", "FILE", "--dirs", "1,1"], _affine_z7_table(),
         lambda f: recover(f, _dirs(f.ring, 2, "1,1"))),
        (["recover", "--input", "FILE", "--dirs", "1,1"], _xy_z5_table(),
         lambda f: recover(f, _dirs(f.ring, 2, "1,1"))),
        (["recover", "--input", "FILE", "--dirs", "1,0"],
         "ring zmod 7\narity 2\npoly\nterm 3 1 2\n",
         lambda f: recover(f, _dirs(f.ring, 2, "1,0"))),
        (["recover", "--input", "FILE", "--dirs", "1,1"], _2xy_z4_table(),
         lambda f: recover(f, _dirs(f.ring, 2, "1,1"))),
        (["check-line", "--input", "FILE", "--base", "0,0", "--dir", "1,1"], _affine_z7_table(),
         lambda f: line_affine_check(f, _line(f.ring, "0,0", "1,1"))),
        (["check-line", "--input", "FILE", "--base", "0,0", "--dir", "1,1"], _xy_z5_table(),
         lambda f: line_affine_check(f, _line(f.ring, "0,0", "1,1"))),
        (["bh", "verify", "--ring", "prime 5", "--set", "1,2,4"], None,
         lambda _: verify_properties(_set("prime 5", "1,2,4"))),
        (["bh", "verify", "--ring", "rational", "--set", "1,2,3,6", "--h", "2"], None,
         lambda _: verify_bh(_set("rational", "1,2,3,6"), 2)),
        (["bh", "verify", "--ring", "zmod 6", "--set", "1,2,3"], None,
         lambda _: verify_properties(_set("zmod 6", "1,2,3"))),
        (["bh", "search", "--ring", "prime 5", "--n", "3"], None,
         lambda _: search_bh(_F5, 3)),
        (["bh", "search", "--ring", "zmod 169", "--n", "5", "--budget", "1"], None,
         lambda _: search_bh(Zmod(169), 5, budget=1)),
        (["bh", "geometric", "--ring", "prime 17", "--g", "3", "--n", "4"], None,
         lambda _: construct_geometric(PrimeField(17).elem(3), 4)),
        (["sharpness", "witness", "--ring", "prime 7", "--n", "3", "--dirs", "1,1,1;1,2,4"],
         None,
         lambda _: lower_bound_witness(3, _dirs(PrimeField(7), 3, "1,1,1;1,2,4"), PrimeField(7))),
        (["sharpness", "certify", "--ring", "prime 5", "--n", "3", "--set", "1,2,4"], None,
         lambda _: certify_directions(3, _F5, _set("prime 5", "1,2,4"))),
        (["vonstaudt", "check", "--input", "FILE"], _GOOD_MAP, check_hypotheses),
        (["vonstaudt", "check", "--input", "FILE"], _CONST_MAP, check_hypotheses),
        (["vonstaudt", "recover", "--input", "FILE"], _GOOD_MAP, recover_semilinear),
    ],
    ids=["affine", "line-witness", "coefficient-witness", "cannot-cancel",
         "check-line-ok", "check-line-failed", "bh-ok", "bh-collision",
         "bh-non-regular-difference", "bh-search", "bh-search-inconclusive", "bh-geometric", "sharpness-witness",
         "sharpness-certify", "vonstaudt-ok", "vonstaudt-violation", "vonstaudt-recover"],
)
def test_one_document_per_result(tmp_path, argv, body, result):
    # the CLI prints the result's own document, then its version and digest
    oracle = None
    if body is not None:
        argv = [_write(tmp_path, "f.tbl", body) if a == "FILE" else a for a in argv]
        oracle = parse_function_table(body)
    _, text = run_subcommand(argv)
    lines = text.splitlines(keepends=True)
    assert [line.split(":")[0] for line in lines[-2:]] == ["version", "digest"]
    assert "".join(lines[:-2]) == emit_certificate(result(oracle))


def _digest(code_text):
    code, text = code_text
    assert code != EXIT_USAGE, text
    if text.startswith("{"):
        return json.loads(text)["digest"]
    return text.rpartition("digest: ")[2].removesuffix("\n")


_Z4_2XY = "ring zmod 4\narity 2\npoly\nterm 2 1 2\n"
_Z4_1_PLUS_X1 = "ring zmod 4\narity 2\npoly\nterm 1\nterm 1 1\n"


@pytest.mark.parametrize(
    "body, first, second",
    [
        # cannot-cancel (exit 3) against non-affine (exit 2)
        (_Z4_2XY, ["recover", "--input", "FILE", "--dirs", "1,1"],
         ["recover", "--input", "FILE", "--dirs", "1,2"]),
        # affine (exit 0) against cannot-cancel (exit 3)
        (_Z4_1_PLUS_X1, ["recover", "--input", "FILE", "--dirs", "1,1"],
         ["recover", "--input", "FILE", "--dirs", "1,1", "--mode", "proof"]),
        (None, ["bh", "verify", "--ring", "prime 5", "--set", "1,2,4"],
         ["bh", "verify", "--ring", "prime 7", "--set", "1,2,4"]),
        (None, ["directions", "--ring", "prime 5", "--family", "--n", "3"],
         ["directions", "--ring", "prime 5", "--family", "--n", "4"]),
        (None, ["sharpness", "witness", "--n", "3", "--dirs", "1,1,1;1,2,4", "--ring", "prime 7"],
         ["sharpness", "witness", "--n", "3", "--dirs", "1,1,1;1,2,4", "--ring", "rational"]),
    ],
    ids=["recover-dirs", "recover-mode", "bh-verify-ring", "directions-n", "witness-ring"],
)
def test_different_questions_print_different_digests(tmp_path, body, first, second):
    # each pair once shared a digest, which hashed one option or the input alone
    path = body and _write(tmp_path, "f.poly", body)
    first, second = ([path if a == "FILE" else a for a in argv] for argv in (first, second))
    assert _digest(run_subcommand(first)) != _digest(run_subcommand(second))


def test_one_question_prints_one_digest(tmp_path):
    path = _write(tmp_path, "affine.tbl", _affine_z7_table())
    crlf = _write(tmp_path, "crlf.tbl", _affine_z7_table().replace("\n", "\r\n"))
    same = [
        (["recover", "--input", path, "--dirs", "1,1"],
         ["recover", f"--input={path}", "--dirs=1,1"],
         ["recover", "--input", path, "--dirs", "1,1", "--mode", "exhaustive"],
         ["--json", "recover", "--input", path, "--dirs", "1,1"],
         # the input is read with universal newlines
         ["recover", "--input", crlf, "--dirs", "1,1"]),
        (["bh", "search", "--ring", "prime 5", "--n", "3"],
         ["bh", "search", "--ring", "prime 5", "--n=3", "--budget", "1000000"],
         ["--json", "bh", "search", "--ring", "prime 5", "--n", "3"]),
        (["directions", "--ring", "prime 5", "--n", "3", "--family"],
         ["directions", "--family", "--n", "03", "--ring=prime 5"],
         ["--json", "directions", "--ring", "prime 5", "--n", "3", "--family"]),
    ]
    for runs in same:
        assert len({_digest(run_subcommand(argv)) for argv in runs}) == 1, runs[0]


@pytest.mark.parametrize(
    "argv, body, words",
    [
        (["check-line", "--input", "FILE", "--dir", "1,1", "--base", "0,0"], _affine_z7_table(),
         ["check-line", "--base=0,0", "--dir=1,1"]),
        (["psi", "--input", "FILE"], _affine_z7_table(), ["psi"]),
        # a length counts characters: the no-break space is two UTF-8 bytes
        (["psi", "--input", "FILE", "--base", "0,0\u00a0"], _affine_z7_table(),
         ["psi", "--base=0,0\u00a0"]),
        (["recover", "--input", "FILE", "--moment", "1,2", "--count", "3"], _affine_z7_table(),
         ["recover", "--moment=1,2", "--count=3", "--mode=exhaustive"]),
        (["directions", "--ring", "prime 5", "--n", "3", "--family"], None,
         ["directions", "--ring=prime 5", "--n=3", "--family"]),
        (["bh", "verify", "--ring", "prime 5", "--set", "1,2,4", "--h", "2"], None,
         ["bh", "verify", "--ring=prime 5", "--set=1,2,4", "--h=2"]),
        (["bh", "search", "--ring", "prime 5", "--n", "3"], None,
         ["bh", "search", "--ring=prime 5", "--n=3", "--budget=1000000"]),
        (["bh", "geometric", "--ring", "prime 17", "--g", "3", "--n", "4"], None,
         ["bh", "geometric", "--ring=prime 17", "--g=3", "--n=4"]),
        (["sharpness", "bound", "--n", "4"], None, ["sharpness", "bound", "--n=4"]),
        (["sharpness", "witness", "--ring", "prime 7", "--n", "3", "--dirs", "1,1,1;1,2,4"], None,
         ["sharpness", "witness", "--ring=prime 7", "--n=3", "--dirs=1,1,1;1,2,4"]),
        (["sharpness", "certify", "--ring", "prime 5", "--n", "3", "--set", "1,2,4"], None,
         ["sharpness", "certify", "--ring=prime 5", "--n=3", "--set=1,2,4"]),
        (["vonstaudt", "check", "--input", "FILE"], _CONST_MAP, ["vonstaudt", "check"]),
        (["vonstaudt", "recover", "--input", "FILE"], _GOOD_MAP, ["vonstaudt", "recover"]),
    ],
    ids=["check-line", "psi", "psi-base", "recover", "directions", "bh-verify", "bh-search", "bh-geometric",
         "sharpness-bound", "sharpness-witness", "sharpness-certify", "vonstaudt-check",
         "vonstaudt-recover"],
)
def test_digest_follows_the_readme_recipe(tmp_path, argv, body, words):
    # README, "Digest": each part, written as its length in characters, ':' and
    # the part, in order; the SHA-256 of the UTF-8 bytes of them all
    path = body and _write(tmp_path, "f.tbl", body)
    _, text = run_subcommand([path if a == "FILE" else a for a in argv])
    document, digest_line = text[: text.index("digest: ")], text[text.index("digest: "):]
    recipe = hashlib.sha256()
    for part in [*words, body or "", document]:
        recipe.update(str(len(part)).encode("ascii") + b":")
        recipe.update(part.encode("utf-8"))
    assert digest_line == f"digest: {recipe.hexdigest()}\n"


def test_digest_frames_each_part(tmp_path):
    # a line end moved from the end of --base to the front of the input file
    # leaves the answer and the concatenated text alike, but not the digest
    body = _affine_z7_table()
    argvs = (["psi", "--input", _write(tmp_path, "a.tbl", body), "--base", "0,0\n"],
             ["psi", "--input", _write(tmp_path, "b.tbl", "\n" + body), "--base", "0,0"])
    (code_a, text_a), (code_b, text_b) = map(run_subcommand, argvs)
    assert code_a == code_b == EXIT_OK
    assert text_a.rpartition("digest: ")[0] == text_b.rpartition("digest: ")[0]
    assert _digest((code_a, text_a)) != _digest((code_b, text_b))


def test_vonstaudt_cli_semilinear_document(tmp_path):
    from linaff import GaloisField

    GF4 = GaloisField(2, 2, [1, 1])
    path = _write(
        tmp_path,
        "sq.tbl",
        _vector_table_text(lambda v: (v[0] * v[0], v[1] * v[1]), GF4, 2, 2),
    )
    code, text = run_subcommand(["vonstaudt", "recover", "--input", path])
    assert code == EXIT_OK
    assert "status: semilinear" in text
    assert "tau: frobenius^1" in text
    assert "offset: 0 0" in text
    assert "basis_images: 1 0 ; 0 1" in text


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check-line", "--input", "FILE", "--base", "1,1,1", "--dir", "1,1"],
         "line base and direction have different arities"),
        (["check-line", "--input", "FILE", "--base", "1,1,1", "--dir", "1,1,1"],
         "line arity 3 != oracle arity 2"),
        (["psi", "--input", "FILE", "--base", "1,1,1"], "base point arity 3 != oracle arity 2"),
        (["bh", "search", "--ring", "rational", "--n", "3"],
         "search needs a finite ring; use construct_primes over Q"),
        (["vonstaudt", "check", "--input", "F3^8"],
         "dimension 8 over prime 3 has 7,173,360 lines of 3 points, 21,520,080 in all; "
         "the line scan is capped at 5,591,040 points"),
    ],
    ids=["line-arities", "line-vs-oracle", "psi-base-arity", "search-rational", "vonstaudt-cap"],
)
def test_precondition_failures_are_one_usage_error_line(tmp_path, capsys, argv, message):
    # wrong input of every kind a library call can refuse: exit 1, one stderr line
    files = {
        "FILE": lambda: _write(tmp_path, "affine.tbl", _affine_z7_table()),
        "F3^8": lambda: _write(tmp_path, "constant.tbl", format_function_table(
            VectorMapTable.from_codes(PrimeField(3), 8, 1, [(0,)] * 3**8))),
    }
    argv = [files[a]() if a in files else a for a in argv]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_main_writes_to_streams(tmp_path, capsys):
    path = _write(tmp_path, "affine.tbl", _affine_z7_table())
    assert main(["recover", "--input", path, "--dirs", "1,1"]) == EXIT_OK
    out = capsys.readouterr()
    assert "status: affine" in out.out and out.err == ""
    assert main(["recover", "--input", str(tmp_path / "nope.tbl"), "--dirs", "1,1"]) == EXIT_USAGE
    out = capsys.readouterr()
    assert "error:" in out.err and out.out == ""


def test_a_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.tbl"
    path.write_bytes(b"ring zmod 4\narity 1\ncodomain scalar\nmap 0 -> \xff\n")
    want = f"error: cannot read {path}: not UTF-8 text (invalid start byte at byte 45)\n"
    for argv in (["recover", "--input", str(path), "--family"],
                 ["vonstaudt", "check", "--input", str(path)]):
        assert run_subcommand(argv) == (EXIT_USAGE, want)
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == want


@pytest.mark.parametrize("data", [
    b"ring zmod 3\narity 1\nmap 0 -> 1\n",
    b"ring zmod 3\r\narity 1\r\nmap 0 -> 1\r\n",
    b"ring zmod 3\rarity 1\rmap 0 -> 1\r",
    b"ring zmod 3\r\r\narity 1\n\rmap 0 -> 1\r\n\r",
    b"\xef\xbb\xbfring zmod 3\r\narity 1\n",
    b"",
    b"ok\r\n\r\xe2\x82\n",
    b"ok\r\nmap 0 -> \xc3",
], ids=["lf", "crlf", "lone-cr", "mixed", "bom", "empty", "bad-byte-after-crs", "truncated"])
def test_an_input_file_reads_as_text_mode_reads_it(tmp_path, data):
    # the file is read as bytes and its line ends folded to "\n", which is
    # what universal newlines make of it, so the digest's input text is the
    # same, and a file that is not UTF-8 names the byte that text mode names
    path = tmp_path / "f.tbl"
    path.write_bytes(data)
    try:
        with open(path, encoding="utf-8") as handle:
            want = handle.read()
    except UnicodeDecodeError as exc:
        want = f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
    try:
        assert _read_input(str(path)) == want
    except ParseError as exc:
        assert str(exc) == want


def test_internal_errors_have_their_own_exit_code(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InconsistencyError("cross-check failed")

    # the CLI imports recovery on dispatch and calls recover through it
    monkeypatch.setattr("linaff.recovery.recover", broken)
    path = _write(tmp_path, "affine.tbl", _affine_z7_table())
    argv = ["recover", "--input", path, "--dirs", "1,1"]
    assert run_subcommand(argv) == (EXIT_INTERNAL, "internal error: cross-check failed\n")
    assert main(argv) == EXIT_INTERNAL
    out = capsys.readouterr()
    assert out.err == "internal error: cross-check failed\n" and out.out == ""


def test_vonstaudt_without_decomposition_or_violation_is_internal(tmp_path, monkeypatch):
    # the fundamental theorem rules this state out, so only a faulty
    # decomposition reaches it
    F5 = PrimeField(5)
    table = _vector_table_text(lambda v: (v[0] + F5.one, v[1]), F5, 2, 2)
    path = _write(tmp_path, "m.tbl", table)
    monkeypatch.setattr("linaff.vonstaudt._decompose", lambda f: None)
    message = "internal error: every line image is a line, yet f has no semilinear decomposition\n"
    for sub in ("check", "recover"):
        assert run_subcommand(["vonstaudt", sub, "--input", path]) == (EXIT_INTERNAL, message)


def test_sharpness_witness_cross_checks_are_internal_errors(monkeypatch):
    # only a faulty kernel reaches these checks: fewer rows than columns
    # always leave a kernel, and its vectors solve every row
    argv = ["sharpness", "witness", "--ring", "prime 7", "--n", "3", "--dirs", "1,1,1;1,2,4"]
    for vector, message in [
        (None, "direction set already forces the binding degree"),
        ([0] * 3, "degenerate witness polynomial"),
        # x1*x2 restricts to r^2 along (1,1,1)
        ([1, 0, 0], "witness is visible along a supplied direction"),
    ]:
        monkeypatch.setattr("linaff.sharpness.kernel_vector", lambda *args, v=vector: v)
        assert run_subcommand(argv) == (EXIT_INTERNAL, f"internal error: {message}\n")


def test_an_empty_dirs_value_is_the_empty_set(tmp_path):
    # --dirs "" is given, as --dirs ";" is: both name no direction, so
    # recover answers from psi alone; only the request in the digest differs
    for name, table in (("affine.tbl", _affine_z7_table()), ("xy.tbl", _xy_z5_table())):
        path = _write(tmp_path, name, table)
        answers = [run_subcommand(["recover", "--input", path, "--dirs", text]) for text in ("", ";")]
        (code, empty), (code_semicolon, semicolon) = answers
        assert code == code_semicolon == (EXIT_OK if name == "affine.tbl" else EXIT_NEGATIVE)
        assert empty[: empty.index("digest:")] == semicolon[: semicolon.index("digest:")]


def test_family_flag_via_cli(tmp_path):
    path = _write(tmp_path, "affine.tbl", _affine_z7_table())
    code, text = run_subcommand(["recover", "--input", path, "--family"])
    assert code == EXIT_OK
    code, text = run_subcommand(["recover", "--input", path, "--moment", "1,2"])
    assert code == EXIT_OK
    code, text = run_subcommand(
        ["recover", "--input", path, "--family", "--dirs", "1,1"]
    )
    assert code == EXIT_USAGE


def test_proof_mode_via_cli(tmp_path):
    path = _write(tmp_path, "f2xy.tbl", _2xy_z4_table())
    code, text = run_subcommand(
        ["recover", "--input", path, "--dirs", "1,1", "--mode", "proof"]
    )
    assert code == EXIT_CANNOT_CANCEL
    assert "degree: 2" in text and "det: 2" in text


def test_psi_with_base(tmp_path):
    path = _write(tmp_path, "affine.tbl", _affine_z7_table())
    code, text = run_subcommand(["psi", "--input", path, "--base", "2,3"])
    assert code == EXIT_OK
    # shifting an affine function changes only the constant: 1 + 3*2 + 2*3
    assert "coeffs: 6 + 3*x1 + 2*x2" in text


def test_check_line_on_rational_poly(tmp_path):
    text = "\n".join(
        ["ring rational", "arity 2", "poly", "term 1 1 2"]
    )
    path = _write(tmp_path, "q.tbl", text)
    code, out = run_subcommand(["check-line", "--input", path, "--base", "0,0", "--dir", "1,1"])
    assert code == EXIT_NEGATIVE
    assert "status: non-affine" in out
    code, out = run_subcommand(["check-line", "--input", path, "--base", "0,0", "--dir", "1,0"])
    assert code == EXIT_OK
    assert "slope: 0" in out


def test_recover_over_galois_field_table(tmp_path):
    from linaff import GaloisField

    GF4 = GaloisField(2, 2, [1, 1])
    # f = t*x + (t+1)*y + 1, coefficients in integer digit encoding
    poly = MultiAffinePoly(GF4, 2, {0: GF4.one, 0b01: GF4.elem(2), 0b10: GF4.elem(3)})
    path = _write(tmp_path, "gf.tbl", format_function_table(table_from_poly(poly)))
    code, text = run_subcommand(["recover", "--input", path, "--dirs", "1,1"])
    assert code == EXIT_OK
    assert "coeffs: 1 2 3" in text
