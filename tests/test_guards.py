"""Every guard, reached once with its exact message.

A parse or precondition guard that the CLI can reach is run through `main`:
exit 1, one `error:` line on stderr and no traceback.  The others are
called on the library.  The three internal cross-checks (`InconsistencyError`,
a bug) are reached by injecting the fault each one guards against; the
CLI answers them with exit 4.
"""

from types import SimpleNamespace

import pytest

from linaff import (
    BhCandidate,
    DirectionSet,
    InconsistencyError,
    MultiAffinePoly,
    PreconditionError,
    PrimeField,
    Rationals,
    TableOracle,
    VectorMapTable,
    Zmod,
    certify_directions,
    construct_geometric,
    construct_primes,
    enumerate_affine_lines,
    family_directions,
    frobenius,
    line_affine_check,
    lower_bound_witness,
    moment_directions,
    psi_extract,
    radial_values,
    recover,
)
from linaff import bh_sets, linalg
from linaff.cli import EXIT_INTERNAL, EXIT_USAGE, main, run_subcommand
from linaff.multiaffine import Line

F3, F5, F7, Z4 = PrimeField(3), PrimeField(5), PrimeField(7), Zmod(4)
_EMPTY_VECTOR_MAP = "ring prime 3\narity 2\ncodomain vector 0\n" + "".join(
    f"map {a} {b} ->\n" for a in range(3) for b in range(3)
)


@pytest.mark.parametrize("argv, text, message", [
    (["recover", "--family"], "ring zmod 3\narity 2\npoly\nmap 0 0 -> 1\n",
     "line 4: expected 'term', got 'map'"),
    (["recover", "--family"], "ring zmod 3\narity 1\npoly\nterm\n",
     "line 4: term needs a coefficient"),
    (["recover", "--family"], "ring zmod 3\nmap 0 -> 1\n",
     "line 2: map rows must follow ring and arity"),
    (["recover", "--family"], "ring zmod 3\n", "missing arity declaration"),
    (["recover", "--family"], "ring zmod 3\narity 2\npoly\nterm 1 1 1\n",
     "line 4: repeated variable index in term"),
    (["recover", "--family"], "ring zmod 3\narity 0\nmap -> 1\n", "arity must be in 1..16, got 0"),
    (["vonstaudt", "check"], _EMPTY_VECTOR_MAP, "codomain dimension must be >= 1, got 0"),
    (["directions", "--ring", "prime 5", "--n", "3", "--moment", "1,2,4", "--count", "0"], None,
     "need at least one direction, got 0"),
    (["directions", "--ring", "prime 101", "--n", "17", "--moment",
      ",".join(map(str, range(1, 18))), "--count", "1"], None, "arity must be at most 16, got 17"),
    (["sharpness", "certify", "--ring", "prime 5", "--n", "2", "--set", "1,2"], None,
     "need n >= 3, got 2"),
    (["bh", "geometric", "--ring", "zmod 6", "--g", "0", "--n", "3"], None,
     "generator g is not regular"),
    (["bh", "search", "--ring", "gf 4 2 1 1", "--n", "3"], None, "4 is not prime"),
    (["bh", "search", "--ring", "gf 2 0", "--n", "3"], None,
     "extension degree must be >= 1, got 0"),
    (["bh", "verify", "--ring", "rational", "--set", "x,1"], None,
     "bad vector 'x,1': Invalid literal for Fraction: 'x'"),
], ids=["term-expected", "term-coefficient", "map-before-arity", "no-arity", "repeated-index",
        "arity-0", "codomain-vector-0", "count-0", "moment-17", "certify-n-2", "geometric-g-0",
        "gf-not-prime", "gf-degree-0", "rational-set"])
def test_cli_guards_are_one_usage_error_line(tmp_path, capsys, argv, text, message):
    if text is not None:
        path = tmp_path / "f.tbl"
        path.write_text(text)
        argv = [*argv, "--input", str(path)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _poly(ring, arity, coeffs):
    return MultiAffinePoly(ring, arity, {m: ring.elem(c) for m, c in coeffs.items()})


def _table(ring, arity):
    return TableOracle.from_codes(ring, arity, [0] * ring.size**arity)


@pytest.mark.parametrize("call, message", [
    (lambda: BhCandidate(F5, (F7.one,)), "element from a different ring"),
    (lambda: construct_primes(0), "need n >= 1, got 0"),
    (lambda: MultiAffinePoly(Z4, 2, {4: Z4.one}), "mask 4 out of range for arity 2"),
    (lambda: MultiAffinePoly(Z4, 1, {1: F5.one}), "coefficient ring mismatch"),
    (lambda: TableOracle(F3, 1, {(F3.zero,): 1}), "table value 1 is not in prime 3"),
    (lambda: TableOracle.from_codes(F3, 1, [0, 1]), "table has 2 entries, needs all 3 points"),
    (lambda: psi_extract(_table(F3, 2), (F7.one, F7.one)), "no table entry for point 1 1"),
    (lambda: radial_values(_poly(F5, 2, {3: 1}), (1,)), "direction arity 1 != poly arity 2"),
    (lambda: DirectionSet(F5, 0, ()), "arity must be >= 1, got 0"),
    (lambda: family_directions(F5, 2, {(1, 2): [1]}), "J=(1, 2) needs 2 coefficients"),
    (lambda: moment_directions(F5, (), 1), "empty node set"),
    (lambda: recover(_table(F5, 2), DirectionSet(F5, 3, ((1, 1, 1),))),
     "direction arity 3 != oracle arity 2"),
    (lambda: F5.one + 1, "cannot combine 1@prime 5 with 1"),
    (lambda: Rationals().inverse(Rationals().zero), "0 is not invertible"),
    (lambda: frobenius(F5.one, -1), "frobenius power must be nonnegative"),
    (lambda: lower_bound_witness(3, DirectionSet(F7, 3, ((1, 1, 1),)), F5),
     "directions live in a different ring"),
    (lambda: lower_bound_witness(3, DirectionSet(F5, 2, ((1, 1),)), F5),
     "direction arity 2 != n = 3"),
    (lambda: certify_directions(3, F7, BhCandidate(F5, tuple(map(F5.elem, (1, 2, 4))))),
     "node set lives in a different ring"),
    (lambda: VectorMapTable.from_codes(F3, 2, 1, [(0,)] * 8),
     "table has 8 entries, needs all 9 points"),
    (lambda: VectorMapTable.from_codes(F3, 2, 1, [(0,)] * 9).value((F7.one, F7.one)),
     "no table entry for point 1 1"),
    (lambda: enumerate_affine_lines(Z4, 2), "line enumeration needs a finite field"),
    (lambda: enumerate_affine_lines(F3, 0), "dimension must be >= 1, got 0"),
])
def test_library_guards_name_the_wrong_input(call, message):
    with pytest.raises(PreconditionError) as info:
        call()
    assert str(info.value) == message


def _assert_internal_error(call, argv, message):
    with pytest.raises(InconsistencyError) as info:
        call()
    assert str(info.value) == message
    assert run_subcommand(argv) == (EXIT_INTERNAL, f"internal error: {message}\n")


def test_a_geometric_set_failing_its_bundle_is_an_internal_error(monkeypatch):
    # 3 generates F_7^*, so the set {1, 3, 3^2} passes; a bundle check that
    # fails it is a fault in the check, not an answer
    monkeypatch.setattr(bh_sets, "verify_properties", lambda candidate: SimpleNamespace(ok=False))
    _assert_internal_error(
        lambda: construct_geometric(F7.elem(3), 3),
        ["bh", "geometric", "--ring", "prime 7", "--g", "3", "--n", "3"],
        "geometric construction violated its own guarantee",
    )


def test_a_null_residual_refuted_nowhere_is_an_internal_error(tmp_path, monkeypatch):
    # x1 + x2 is affine on every line; a ring that calls its null residual
    # non-null sends the line to the witness scan, which refutes no parameter
    monkeypatch.setattr(Zmod, "is_null", lambda ring, coeffs: False)
    path = tmp_path / "f.tbl"
    path.write_text("ring prime 5\narity 2\npoly\nterm 1 1\nterm 1 2\n")
    _assert_internal_error(
        lambda: line_affine_check(_poly(F5, 2, {1: 1, 2: 1}), Line((F5.zero,) * 2, (F5.one,) * 2)),
        ["check-line", "--input", str(path), "--base", "0,0", "--dir", "1,1"],
        "residual polynomial is not null yet refuted nowhere",
    )


def test_a_degree_system_forced_to_zero_is_an_internal_error(tmp_path, monkeypatch):
    # x1 x2 vanishes along both axes, so its degree-2 system has the nonzero
    # solution x1 x2; an elimination that finds none is a fault in it
    monkeypatch.setattr(linalg, "kernel_vector", lambda rows, columns, ring: None)
    path = tmp_path / "f.tbl"
    path.write_text("ring prime 5\narity 2\npoly\nterm 1 1 2\n")
    _assert_internal_error(
        lambda: recover(_poly(F5, 2, {3: 1}), DirectionSet(F5, 2, ((1, 0), (0, 1)))),
        ["recover", "--input", str(path), "--dirs", "1,0;0,1"],
        "degree-2 system forced zero but coefficients survive",
    )
