"""Start-up: what a cold CLI call imports, the lazy package surface, and the
immutable record types that replaced dataclasses."""

import importlib
import os
import subprocess
import sys

import pytest

import linaff
from linaff import (
    Affine,
    BhCandidate,
    BudgetSpent,
    DirectionSet,
    HypothesisCheck,
    Line,
    LineCheck,
    MultiAffinePoly,
    PreconditionError,
    PrimeField,
    Zmod,
)

SRC = os.path.dirname(os.path.dirname(linaff.__file__))

# runs one CLI call in a fresh interpreter and prints, after the document,
# the modules it loaded beyond those the bare interpreter (with site) holds
_PROBE = """
import sys
before = set(sys.modules)
from linaff.cli import main
code = main(sys.argv[1:])
print("exit", code)
print("loaded", *sorted(set(sys.modules) - before))
"""

NEVER_ON_RECOVER = {
    "linaff.bh_sets",
    "linaff.sharpness",
    "linaff.vonstaudt",
    "json",
    "fractions",
    "dataclasses",
}


def _fresh(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _cli_imports(*argv):
    """(document lines, exit code, loaded modules) of one CLI call."""
    *doc, exit_line, loaded = _fresh(_PROBE, *argv)
    return doc, int(exit_line.split()[1]), set(loaded.split()[1:])


def _z5_table(tmp_path, value):
    rows = [f"map {x} {y} -> {value(x, y) % 5}" for x in range(5) for y in range(5)]
    path = tmp_path / "f.tbl"
    path.write_text("ring zmod 5\narity 2\ncodomain scalar\n" + "\n".join(rows) + "\n")
    return str(path)


def _bare_has(module):
    # a site hook may have loaded the module before the probe looked
    return _fresh(f"import sys; print({module!r} in sys.modules)") == ["True"]


def test_recover_and_check_line_load_only_their_modules(tmp_path):
    affine = _z5_table(tmp_path, lambda x, y: 2 * x + 3 * y + 1)
    doc, code, loaded = _cli_imports("recover", "--input", affine, "--moment", "1,2")
    assert (doc[0], code) == ("status: affine", 0)
    assert "linaff.recovery" in loaded
    assert not loaded & NEVER_ON_RECOVER, loaded & NEVER_ON_RECOVER
    # an affine psi touches no direction, and only a coefficient of degree
    # >= 2 that survives the radial lines needs linalg's kernel check
    assert "linaff.linalg" not in loaded

    doc, code, loaded = _cli_imports(
        "check-line", "--input", affine, "--base", "0,0", "--dir", "1,2"
    )
    assert (doc[0], code) == ("status: affine", 0)
    assert not loaded & (NEVER_ON_RECOVER | {"linaff.recovery"})

    # _z5_table rewrites the same file, which the affine calls no longer read
    xy = _z5_table(tmp_path, lambda x, y: x * y)
    doc, code, loaded = _cli_imports("recover", "--input", xy, "--dirs", "1,0")
    assert (doc[0], code) == ("status: non-affine", 2)
    assert "linaff.linalg" in loaded


def test_cold_calls_load_no_argument_parser(tmp_path):
    # the CLI reads argv against its own option table: argparse, and the
    # gettext and locale it imports, cost a cold call about 2 ms
    affine = _z5_table(tmp_path, lambda x, y: x + y)
    for argv in (
        ["recover", "--input", affine, "--dirs", "1,1"],
        ["directions", "--ring", "prime 5", "--n", "3", "--family"],
        ["bh", "verify", "--ring", "prime 5", "--set", "1,2,4"],
    ):
        doc, code, loaded = _cli_imports(*argv)
        assert code == 0, doc
        assert not loaded & {"argparse", "gettext", "locale"}, argv


def test_vonstaudt_check_does_not_load_recovery(tmp_path):
    rows = [f"map {x} {y} -> {(x + 2 * y) % 3} {y}" for x in range(3) for y in range(3)]
    path = tmp_path / "v.tbl"
    path.write_text("ring prime 3\narity 2\ncodomain vector 2\n" + "\n".join(rows) + "\n")
    doc, code, loaded = _cli_imports("vonstaudt", "check", "--input", str(path))
    assert (doc[0], code) == ("status: ok", 0)
    assert "linaff.vonstaudt" in loaded
    assert "linaff.recovery" not in loaded


def test_json_and_rationals_load_their_modules(tmp_path):
    affine = _z5_table(tmp_path, lambda x, y: x + y)
    doc, code, loaded = _cli_imports("--json", "recover", "--input", affine, "--dirs", "1,1")
    assert doc[0].startswith('{"status": "affine"') and code == 0
    assert "json" in loaded or _bare_has("json")
    doc, code, loaded = _cli_imports("directions", "--ring", "rational", "--n", "3", "--family")
    assert code == 0
    assert "fractions" in loaded or _bare_has("fractions")


def test_import_linaff_loads_no_submodule():
    (line,) = _fresh(
        "import sys; import linaff; print(sorted(m for m in sys.modules if m.startswith('linaff.')))"
    )
    assert line == "[]"


def test_every_export_resolves_to_its_defining_module():
    for name in linaff.__all__:
        module = importlib.import_module(f"linaff.{linaff._EXPORTS[name]}")
        value = getattr(linaff, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) in (module.__name__, "types"), name


def test_lazy_surface_lists_and_rejects_names():
    assert set(linaff.__all__) <= set(dir(linaff))
    namespace = {}
    exec("from linaff import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(linaff.__all__)
    with pytest.raises(AttributeError):
        linaff.no_such_name
    with pytest.raises(ImportError):
        exec("from linaff import no_such_name", {})
    # the README's first import
    from linaff import DirectionSet, MultiAffinePoly, Zmod, recover  # noqa: F401


def test_records_compare_hash_and_print_by_type_and_fields():
    F5 = PrimeField(5)
    line = Line((F5.zero, F5.one), (F5.one, F5.one))
    same = Line((F5.zero, F5.one), (F5.one, F5.one))
    assert line == same and hash(line) == hash(same)
    assert line != Line((F5.one, F5.one), (F5.one, F5.one))
    # equal fields, different types
    assert LineCheck(F5.one, None) != Affine(F5.one, None)
    assert BudgetSpent(3) == BudgetSpent(3) and BudgetSpent(3) != BudgetSpent(4)
    assert len({BudgetSpent(3), BudgetSpent(3), BudgetSpent(4)}) == 2
    assert HypothesisCheck(None) == HypothesisCheck(None) and HypothesisCheck(None).ok
    assert repr(BudgetSpent(3)) == "BudgetSpent(budget=3)"
    assert repr(HypothesisCheck(None)) == "HypothesisCheck(line=None)"
    Z4 = Zmod(4)
    poly = MultiAffinePoly(Z4, 2, {0b11: Z4.one})
    assert poly == MultiAffinePoly(Z4, 2, {0b11: Z4.one})
    assert repr(poly) == "1*x1x2"


def test_record_fields_cannot_be_changed():
    F5 = PrimeField(5)
    line = Line((F5.zero,), (F5.one,))
    records = [
        (line, "base"),
        (DirectionSet(F5, 1, ((1,),)), "dirs"),
        (BhCandidate(F5, (F5.one, F5.elem(2))), "elements"),
        (Affine(F5.one, (F5.zero,)), "constant"),
        (BudgetSpent(3), "budget"),
        (HypothesisCheck(None), "ok"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        del line.dir
    assert line.base == (F5.zero,) and line.dir == (F5.one,)


def _record_types():
    """Every Record subclass in linaff, after importing each module."""
    import pkgutil

    from linaff.rings import Record

    for info in pkgutil.iter_modules(linaff.__path__):
        importlib.import_module(f"linaff.{info.name}")
    found, stack = [], [Record]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub.__module__.startswith("linaff."):
                found.append(sub)
                stack.append(sub)
    return found


def test_field_only_records_take_their_slots_in_order():
    # a record without its own __init__ takes exactly its __slots__, positionally
    field_only = [cls for cls in _record_types() if "__init__" not in vars(cls)]
    names = {cls.__name__ for cls in field_only}
    assert names >= {
        "Affine", "LineWitness", "CoefficientWitness", "CannotCancel", "LineCheck",
        "Collision", "Property2Failure", "BhReport", "BudgetSpent", "SharpnessWitness",
        "SemilinearCert", "HypothesisCheck",
    }, names
    for cls in field_only:
        values = [object() for _ in cls.__slots__]
        record = cls(*values)
        assert [getattr(record, name) for name in cls.__slots__] == values, cls
        with pytest.raises(TypeError):
            cls(*values, None)
        if values:
            with pytest.raises(TypeError):
                cls(*values[1:])
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_tables_are_records_equal_by_fields():
    from linaff.cli import format_function_table, parse_function_table
    from linaff.multiaffine import TableOracle
    from linaff.vonstaudt import VectorMapTable

    Z4 = Zmod(4)
    points = [(x, y) for x in Z4.elements() for y in Z4.elements()]
    scalar = {p: Z4.from_int(p[0].value * p[1].value + 1) for p in points}
    table = TableOracle(Z4, 2, scalar)
    assert table == TableOracle.from_codes(Z4, 2, [v.value for v in scalar.values()])
    assert table != TableOracle.from_codes(Z4, 2, [0] * 16)
    F3 = PrimeField(3)
    points = [(x, y) for x in F3.elements() for y in F3.elements()]
    images = {p: (p[1], p[0] + p[1]) for p in points}
    vector = VectorMapTable(F3, 2, 2, images)
    codes = [tuple(c.value for c in image) for image in images.values()]
    assert vector == VectorMapTable.from_codes(F3, 2, 2, codes)
    for t, fields in [(table, ("ring", "arity", "codes")), (vector, ("field", "dim_in", "dim_out", "codes"))]:
        assert parse_function_table(format_function_table(t)) == t
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(t, name, None)
        # a table does not hash, like MultiAffinePoly, even where its codes are bytes
        with pytest.raises(TypeError):
            hash(t)


def test_table_codes_are_bytes_up_to_sixteen_elements():
    # every constructor stores the codes of a table over q <= 16 elements as
    # bytes, where a pair byte a*q + b fits, and a larger ring's as a list,
    # so a table's equality does not depend on how it was built
    from linaff.cli import format_function_table, parse_function_table
    from linaff.multiaffine import TableOracle

    for ring, kind in ((Zmod(16), bytes), (PrimeField(17), list)):
        codes = [(3 * c + 5) % ring.size for c in range(ring.size)]
        tables = [
            TableOracle(ring, 1, {(x,): ring.elem(codes[x.value]) for x in ring.elements()}),
            TableOracle.from_codes(ring, 1, codes),
            TableOracle.from_codes(ring, 1, bytes(codes)),
        ]
        tables.append(parse_function_table(format_function_table(tables[0])))
        for t in tables:
            assert type(t.codes) is kind and t == tables[0]


def test_table_from_codes_rejects_bad_codes():
    from linaff.multiaffine import TableOracle
    from linaff.vonstaudt import VectorMapTable

    Z4, F3 = Zmod(4), PrimeField(3)
    for bad in (-1, 4):
        with pytest.raises(PreconditionError, match="^table value code out of range for zmod 4$"):
            TableOracle.from_codes(Z4, 2, [0] * 15 + [bad])
    image_range = "^table image code out of range for prime 3$"
    for bad in (-1, 3):
        with pytest.raises(PreconditionError, match=image_range):
            VectorMapTable.from_codes(F3, 2, 2, [(0, 0)] * 8 + [(1, bad)])
    for image in [(0,), (0, 0, 0)]:
        with pytest.raises(PreconditionError, match="^table entry with wrong arity$"):
            VectorMapTable.from_codes(F3, 2, 2, [(0, 0)] * 8 + [image])
