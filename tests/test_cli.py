import json

import pytest

from linaff import (
    MultiAffinePoly,
    ParseError,
    PolyOracle,
    PrimeField,
    Rationals,
    TableOracle,
    VectorMapTable,
    Zmod,
)
from linaff.cli import (
    EXIT_CANNOT_CANCEL,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    emit_certificate,
    format_function_table,
    main,
    parse_function_table,
    run_subcommand,
)
from linaff.recovery import Certificate

from helpers import all_points, table_from_poly


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
    from itertools import product

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
    assert isinstance(oracle, PolyOracle)
    Q = Rationals()
    assert oracle.poly.coeff(0) == Q.parse_element("-2/3")
    assert oracle.poly.coeff(0b01) == Q.from_int(3)
    assert oracle.poly.coeff(0b11) == Q.one


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
    text = format_function_table(PolyOracle(poly))
    again = parse_function_table(text)
    assert isinstance(again, PolyOracle) and again.poly == poly


def test_roundtrip_vector_table():
    F5 = PrimeField(5)
    text = _vector_table_text(lambda v: (v[1], v[0]), F5, 2, 2)
    table = parse_function_table(text)
    assert isinstance(table, VectorMapTable)
    assert format_function_table(table) == text


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
        ([], EXIT_USAGE),
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


def test_emit_certificate_examples():
    Z7 = Zmod(7)
    cert = Certificate("affine", constant=Z7.one, linear=(Z7.elem(3), Z7.elem(2)))
    assert emit_certificate(cert) == "status: affine\ncoeffs: 1 3 2\n"
    from linaff import BhCandidate, verify_bh

    Q = Rationals()
    collision = verify_bh(BhCandidate(Q, tuple(Q.from_int(v) for v in (1, 2, 3, 6))), 2)
    assert emit_certificate(collision) == (
        "status: collision\nleft: 1 6\nright: 2 3\nproduct: 6\n"
    )


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


def test_main_writes_to_streams(tmp_path, capsys):
    path = _write(tmp_path, "affine.tbl", _affine_z7_table())
    assert main(["recover", "--input", path, "--dirs", "1,1"]) == EXIT_OK
    out = capsys.readouterr()
    assert "status: affine" in out.out and out.err == ""
    assert main(["recover", "--input", str(tmp_path / "nope.tbl"), "--dirs", "1,1"]) == EXIT_USAGE
    out = capsys.readouterr()
    assert "error:" in out.err and out.out == ""


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
