"""Fuzzing of the CLI boundary: any argv and any table file give an exit code.

Arguments and table files are drawn from fragments of the real grammar,
mixed with malformed ones, so most runs reach the parsers and the
subcommands instead of stopping at the option reader (`cli._read_argv`).
Every run must return exit 0, 1, 2 or 3 (never 4, an internal cross-check
that failed), raise nothing but a LinaffError, and finish within its time
budget.  The file's bytes are fuzzed too, valid UTF-8 or not, and then
`run_subcommand` must raise nothing at all.
"""

import time
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from linaff import LinaffError  # noqa: E402
from linaff.cli import run_subcommand  # noqa: E402

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
