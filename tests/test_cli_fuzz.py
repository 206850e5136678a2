"""Fuzzing of the CLI boundary: any argv and any table file give an exit code.

Arguments and table files are drawn from fragments of the real grammar,
mixed with malformed ones, so most runs reach the parsers and the
subcommands instead of stopping at the option reader (`cli._read_argv`).
Every run must return exit 0, 1, 2 or 3 (never 4, an internal cross-check
that failed), raise nothing but a LinaffError, and finish within its time
budget.  The file's bytes are fuzzed too, valid UTF-8 or not, and then
`run_subcommand` must raise nothing at all.

The map-body reader is fuzzed differentially: every table that
`format_function_table` writes must be read by the column pass
(`cli._map_columns`), and a table with one edit must read as the row
pass alone reads it.
"""

import random
import time
from itertools import product
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from linaff import LinaffError, ParseError, TableOracle, VectorMapTable, parse_ring_spec  # noqa: E402
from linaff import cli  # noqa: E402
from linaff.cli import format_function_table, parse_function_table, run_subcommand  # noqa: E402

from helpers import read_map_codes  # noqa: E402
from test_cli import _CORPUS_TABLES  # noqa: E402

SECONDS_PER_RUN = 2.0

# finite rings with their sizes; the table strategy writes codes below the size
_FINITE = [("zmod 2", 2), ("zmod 4", 4), ("zmod 6", 6), ("prime 3", 3), ("gf 2 2 1 1", 4)]
_RING_SPECS = [spec for spec, _ in _FINITE] + [
    "rational", "prime 5", "zmod 1", "zmod 0", "prime 4", "gf 2 2 0 0", "gf 2 9 1", "bogus", "",
]
# valid codes of the small rings are drawn three times as often as the rest
_ELEMENTS = ["0", "1", "2", "3"] * 3 + ["5", "-1", "1/2", "03", "+1", "x", "", " ", "9" * 40]
_SMALL_INTS = [str(i) for i in range(-2, 7)] + ["x", "", "1e3", "99999"]
_GARBAGE_LINES = [
    "", "# comment", "ring", "arity", "arity x", "arity 40", "codomain", "codomain vector",
    "codomain vector 0", "poly", "map", "map ->", "map 0 -> ", "map 0 0 -> 1 # c", "term",
    "term 1 9", "term x 1", "term 1 1 1", "->", "map 0 0 -> 1 map 0 1 -> 1",
    "arity ²", "codomain vector ²", "term 1 ²",
]

_vector = st.lists(st.sampled_from(_ELEMENTS), max_size=3).map(",".join)
_dirs = st.lists(_vector, max_size=3).map(";".join)
_ring = st.sampled_from(_RING_SPECS)
_small_int = st.sampled_from(_SMALL_INTS)


@st.composite
def _table_text(draw):
    """A table or poly file: well formed, then possibly damaged line by line."""
    if draw(st.booleans()):
        spec, q = draw(st.sampled_from(_FINITE))
        arity = draw(st.integers(1, 2))
        width = draw(st.sampled_from([None, 1, 2]))
        lines = [f"ring {spec}", f"arity {arity}"]
        if width is not None:
            lines.append(f"codomain vector {width}")
        codes = st.integers(0, q - 1)
        for point in product(range(q), repeat=arity):
            values = [draw(codes) for _ in range(width or 1)]
            lines.append(f"map {' '.join(map(str, point))} -> {' '.join(map(str, values))}")
        if draw(st.booleans()):
            lines = [lines[0], lines[1]] + draw(st.permutations(lines[2:]))
    else:
        arity = draw(st.integers(1, 3))
        lines = [f"ring {draw(st.sampled_from(['rational', 'zmod 4', 'prime 5']))}",
                 f"arity {arity}", "poly"]
        for mask in draw(st.sets(st.integers(0, 2**arity - 1), max_size=4)):
            subset = [str(i + 1) for i in range(arity) if mask >> i & 1]
            lines.append(" ".join(["term", draw(st.sampled_from(_ELEMENTS))] + subset))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["drop", "dup", "insert"]))
        if action == "insert":
            lines.insert(at, draw(st.sampled_from(_GARBAGE_LINES)))
        elif lines and at < len(lines):
            lines[at:at + 1] = [] if action == "drop" else [lines[at]] * 2
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


def _input_command(name, extra):
    return st.tuples(st.just([name, "--input", "FILE"]), extra).map(lambda t: t[0] + t[1])


_direction_choice = st.one_of(
    _dirs.map(lambda d: ["--dirs", d]),
    st.just(["--family"]),
    _vector.map(lambda m: ["--moment", m]),
    st.tuples(_vector, _small_int).map(lambda t: ["--moment", t[0], "--count", t[1]]),
    st.just([]),
)
_mode = st.sampled_from([[], ["--mode", "proof"], ["--mode", "exhaustive"], ["--mode", "x"]])

_argv = st.one_of(
    _input_command("check-line", st.tuples(_vector, _vector).map(
        lambda t: ["--base", t[0], "--dir", t[1]])),
    _input_command("psi", st.one_of(st.just([]), _vector.map(lambda b: ["--base", b]))),
    _input_command("recover", st.tuples(_direction_choice, _mode).map(lambda t: t[0] + t[1])),
    st.tuples(_ring, _small_int, _direction_choice).map(
        lambda t: ["directions", "--ring", t[0], "--n", t[1]] + t[2]),
    st.tuples(_ring, _vector, st.sampled_from([[], ["--h", "2"], ["--h", "x"]])).map(
        lambda t: ["bh", "verify", "--ring", t[0], "--set", t[1]] + t[2]),
    st.tuples(_ring, _small_int, st.sampled_from(["1", "50", "0", "-1"])).map(
        lambda t: ["bh", "search", "--ring", t[0], "--n", t[1], "--budget", t[2]]),
    st.tuples(_ring, st.sampled_from(_ELEMENTS), _small_int).map(
        lambda t: ["bh", "geometric", "--ring", t[0], "--g", t[1], "--n", t[2]]),
    _small_int.map(lambda n: ["sharpness", "bound", "--n", n]),
    st.tuples(_ring, _small_int, _dirs).map(
        lambda t: ["sharpness", "witness", "--ring", t[0], "--n", t[1], "--dirs", t[2]]),
    st.tuples(_ring, _small_int, _vector).map(
        lambda t: ["sharpness", "certify", "--ring", t[0], "--n", t[1], "--set", t[2]]),
    st.sampled_from([["vonstaudt", "check", "--input", "FILE"],
                     ["vonstaudt", "recover", "--input", "FILE"], ["vonstaudt"], ["bh"],
                     ["sharpness"], [], ["bogus"], ["recover"], ["psi", "--input", "missing"]]),
    st.lists(st.sampled_from(["recover", "--input", "FILE", "--dirs", "1,1", "--json", "bh",
                              "--ring", "zmod 4", "--n", "2", "x"]), max_size=6),
)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "f.tbl"


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv, text=_table_text(), as_json=st.booleans())
def test_cli_boundary_never_crashes(table_path, argv, text, as_json):
    table_path.write_text(text, encoding="utf-8", newline="")
    argv = (["--json"] if as_json else []) + [str(table_path) if a == "FILE" else a for a in argv]
    start = time.perf_counter()
    try:
        code, out = run_subcommand(argv)
    except LinaffError:
        code, out = None, "\n"
    assert time.perf_counter() - start < SECONDS_PER_RUN, argv
    assert code in (None, 0, 1, 2, 3), (argv, text, out)
    assert out.endswith("\n")


_FILE_ARGV = [
    ["recover", "--input", "FILE", "--family"],
    ["recover", "--input", "FILE", "--dirs", "1"],
    ["check-line", "--input", "FILE", "--base", "0", "--dir", "1"],
    ["psi", "--input", "FILE"],
    ["vonstaudt", "check", "--input", "FILE"],
    ["vonstaudt", "recover", "--input", "FILE"],
]


@st.composite
def _file_bytes(draw):
    """Arbitrary bytes, or a table's UTF-8 text with a few bytes spliced in."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    data = draw(_table_text()).encode("utf-8")
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=st.sampled_from(_FILE_ARGV), data=_file_bytes())
def test_cli_boundary_takes_any_file_bytes(table_path, argv, data):
    table_path.write_bytes(data)
    code, out = run_subcommand([str(table_path) if a == "FILE" else a for a in argv])
    assert code in (0, 1, 2, 3), (argv, data, out)
    assert out.endswith("\n")


_CORPUS_RINGS = sorted({spec for spec, _, _ in _CORPUS_TABLES})
_CORPUS_WIDTHS = sorted({e for _, _, e in _CORPUS_TABLES if e is not None})


@st.composite
def _written_table(draw):
    """(ring, n, width, codes, text): a seeded table over a corpus ring as
    `format_function_table` writes it, scalar at n = 1..4, or a vector table
    at n = 2..4 over a corpus field of more than two elements; over a ring
    of more than ten elements, whose codes take two digits, n stops at 3."""
    ring = parse_ring_spec(draw(st.sampled_from(_CORPUS_RINGS)))
    vector_ok = ring.is_field and ring.size > 2
    width = draw(st.sampled_from([None] + (_CORPUS_WIDTHS if vector_ok else [])))
    n = draw(st.integers(1 if width is None else 2, 4 if ring.size <= 10 else 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    q = ring.size
    if width is None:
        table = TableOracle.from_codes(ring, n, [rng.randrange(q) for _ in range(q**n)])
    else:
        codes = [tuple(rng.randrange(q) for _ in range(width)) for _ in range(q**n)]
        table = VectorMapTable.from_codes(ring, n, width, codes)
    return ring, n, width, table.codes, format_function_table(table)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(table=_written_table())
def test_column_pass_reads_what_the_writer_prints(table):
    # as written, with CRLF line ends and without a final newline; the row
    # pass is made to fail, so a silent fall-back to it fails here
    ring, n, width, codes, text = table
    for variant in (text, text.replace("\n", "\r\n"), text[:-1]):
        assert cli._map_columns(ring, n, width, variant[variant.index("map "):]) == codes
        with mock.patch.object(cli, "_collect_rows", side_effect=AssertionError("row pass")):
            assert parse_function_table(variant).codes == codes


# single edits of one row's text; `k` is the index of a space in it, `v` of its value
_ROW_EDITS = {
    "doubled space": lambda row, k, v: row[:k] + " " + row[k:],
    "tab": lambda row, k, v: row[:k] + "\t" + row[k + 1 :],
    "trailing space": lambda row, k, v: row + " ",
    "lone CR": lambda row, k, v: row[:k] + "\r" + row[k:],
    "value 01": lambda row, k, v: row[:v] + "0" + row[v:],
    "value +1": lambda row, k, v: row[:v] + "+" + row[v:],
    "comment": lambda row, k, v: row + " # note",
}


@st.composite
def _edited_table(draw):
    """A written table with one edit in its body, then "\n" or "\r\n" ends."""
    lines = draw(_written_table())[-1].splitlines()
    i = draw(st.integers(3, len(lines) - 1))  # lines 0..2 are the header
    row = lines[i]
    edit = draw(st.sampled_from(sorted(_ROW_EDITS) + ["rows swapped", "blank line"]))
    if edit == "rows swapped":
        j = draw(st.integers(3, len(lines) - 1).filter(lambda j: j != i))
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "blank line":
        lines.insert(i, "")
    else:
        k = draw(st.sampled_from([k for k, c in enumerate(row) if c == " "]))
        lines[i] = _ROW_EDITS[edit](row, k, row.index(" -> ") + 4)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _read(text):
    try:
        return parse_function_table(text).codes
    except ParseError as exc:
        return f"error: {exc}"


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(text=_edited_table())
def test_an_edited_table_reads_as_the_row_pass_reads_it(text):
    with mock.patch.object(cli, "_map_columns", return_value=None):
        by_rows = _read(text)
    assert _read(text) == by_rows
    if not isinstance(by_rows, str):
        assert by_rows == read_map_codes(text)
