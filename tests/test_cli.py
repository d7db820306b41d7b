"""CLI contract: selectors, formats, exit codes, byte stability."""

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import divprod.cli as cli
from divprod.cli import main
from divprod.products import (
    coeffs_via_expansion,
    coeffs_via_recurrence,
    gauss_spec,
    jacobi_spec,
    load_spec,
    spec_from_json,
)
from divprod.sequences import triangular_rep_counts
from divprod.series import TruncatedSeries

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _linear_doc(*families):
    """A spec document of linear weights, one factor per (classes, c)."""
    return json.dumps({"shift": 0, "factors": [
        {"set": {"kind": "residueUnion", "classes": classes}, "weight": {"kind": "linear", "c": c}}
        for classes, c in families
    ]})


# gauss_spec and jacobi_spec as spec files.
GAUSS_JSON = _linear_doc(([[0, 2]], "-1"), ([[1, 2]], "1"))
JACOBI_JSON = _linear_doc(([[0, 2]], "-1"), ([[1, 2]], "-2"))


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_subprocess(argv):
    return subprocess.run(
        [sys.executable, "-m", "divprod", *argv],
        capture_output=True,
        text=True,
    )


# --- compute ----------------------------------------------------------------


def test_compute_a_rows(capsys):
    code, out, _ = run_cli(["compute", "a", "--order", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "a"
    assert doc["rows"] == [[0, "1"], [1, "1"], [2, "8"], [3, "28"], [4, "64"]]


def test_compute_t_csv(capsys):
    code, out, _ = run_cli(
        ["compute", "t", "--order", "6", "--format", "csv"], capsys
    )
    assert code == 0
    assert out == "n,value\n0,1\n1,1\n2,0\n3,1\n4,0\n5,0\n6,1\n"


def test_compute_rr1(capsys):
    code, out, _ = run_cli(["compute", "rr1", "--order", "4"], capsys)
    assert code == 0
    assert json.loads(out)["rows"] == [[0, "1"], [1, "1"], [2, "1"], [3, "1"], [4, "2"]]


def test_compute_sigma_starts_at_one(capsys):
    code, out, _ = run_cli(["compute", "sigma", "--order", "5"], capsys)
    assert code == 0
    assert json.loads(out)["rows"] == [[1, "1"], [2, "3"], [3, "4"], [4, "7"], [5, "6"]]


def test_compute_parameterized_names(capsys):
    code, out, _ = run_cli(["compute", "sigma_rm(1,5)", "--order", "6"], capsys)
    assert code == 0
    assert json.loads(out)["rows"][-1] == [6, "7"]

    code, out, _ = run_cli(["compute", "q_regular(3)", "--order", "4"], capsys)
    assert code == 0
    # enumeration: 3 has only {3} and {2,1} once parts may repeat at most twice
    assert json.loads(out)["rows"] == [[0, "1"], [1, "1"], [2, "2"], [3, "2"], [4, "4"]]


def test_compute_unknown_name(capsys):
    code, _, err = run_cli(["compute", "mobius", "--order", "5"], capsys)
    assert code == 2
    assert "unknown sequence" in err


def test_compute_invalid_parameters(capsys):
    code, _, err = run_cli(["compute", "sigma_rm(5,5)", "--order", "5"], capsys)
    assert code == 2
    assert "non-canonical" in err


@pytest.mark.parametrize(
    "name, message",
    [("q_regular(-3)", "p must be"), ("delta(-1)", "m must be"), ("sigma_rm(-1,5)", "non-canonical")],
)
def test_compute_negative_parameters(name, message, capsys):
    code, _, err = run_cli(["compute", name, "--order", "5"], capsys)
    assert code == 2
    assert message in err


# Arguments are ASCII digits: an Arabic-Indic three and a fullwidth eight are not.
@pytest.mark.parametrize(
    "name",
    ["sigma(3)", "delta()", "sigma_rm(1, 5)", "q_regular(3,4)", "q_regular(\u0663)", "delta(\uff18)"],
)
def test_compute_malformed_names(name, capsys):
    code, _, err = run_cli(["compute", name, "--order", "5"], capsys)
    assert code == 2
    assert "unknown sequence" in err


def test_compute_writes_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code, out, _ = run_cli(
        ["compute", "T", "--order", "3", "--format", "csv", "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "n,value\n0,0\n1,1\n2,3\n3,6\n"


# --- expand ------------------------------------------------------------------


@pytest.fixture
def gauss_file(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(GAUSS_JSON)
    return path


def test_spec_files_hold_the_builtins():
    assert spec_from_json(GAUSS_JSON) == gauss_spec()
    assert spec_from_json(JACOBI_JSON) == jacobi_spec()


def test_expand_both_agrees(gauss_file, capsys):
    code, out, _ = run_cli(
        ["expand", "--spec", str(gauss_file), "--order", "6"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == ["1", "1", "0", "1", "0", "0", "1"]
    assert doc["agree"] is True
    assert doc["first_disagreement"] is None


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_expand_both_reports_a_disagreement(gauss_file, monkeypatch, capsys, fmt):
    # The routes agree on every integer spec, so the expansion is patched to
    # return jacobi's: gauss is 1 + x + x^3 + ..., jacobi is 1 - 2x + ...
    jacobi = coeffs_via_expansion(jacobi_spec(), 6)
    monkeypatch.setattr(cli, "coeffs_via_expansion", lambda spec, order: jacobi)
    code, out, err = run_cli(
        ["expand", "--spec", str(gauss_file), "--algo", "both", "--order", "6", "--format", fmt],
        capsys,
    )
    assert code == 1
    if fmt == "json":
        doc = json.loads(out)
        assert doc["coefficients"] == ["1", "1", "0", "1", "0", "0", "1"]
        assert doc["agree"] is False
        assert doc["first_disagreement"] == {"n": 1, "recurrence": "1", "expansion": "-2"}
        assert err == ""
    else:
        assert out == "n,value\n0,1\n1,1\n2,0\n3,1\n4,0\n5,0\n6,1\n"
        assert err == "error: algorithms disagree at n=1: recurrence=1 expansion=-2\n"


def test_expand_recurrence_only(tmp_path, capsys):
    path = tmp_path / "jacobi.json"
    path.write_text(JACOBI_JSON)
    code, out, _ = run_cli(
        ["expand", "--spec", str(path), "--order", "9", "--algo", "recurrence"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == ["1", "-2", "0", "0", "2", "0", "0", "0", "0", "-2"]
    assert "agree" not in doc


def test_expand_csv(gauss_file, capsys):
    code, out, _ = run_cli(
        ["expand", "--spec", str(gauss_file), "--order", "3", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out == "n,value\n0,1\n1,1\n2,0\n3,1\n"


def test_expand_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    code, _, err = run_cli(["expand", "--spec", str(path), "--order", "5"], capsys)
    assert code == 2
    assert "invalid JSON" in err


def test_expand_rejects_nesting_past_the_recursion_limit(tmp_path):
    # json.loads recurses once per level, so this depth raises RecursionError
    # inside the parser; a fresh process shows whether a traceback escapes.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = run_cli_subprocess(["expand", "--spec", str(path), "--order", "5"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: top level: JSON nests deeper than the parser's recursion limit\n"
    )
    assert "Traceback" not in proc.stderr


def test_expand_missing_file(tmp_path, capsys):
    code, _, err = run_cli(
        ["expand", "--spec", str(tmp_path / "absent.json"), "--order", "5"], capsys
    )
    assert code == 2
    assert "absent.json" in err


def _explicit_3(weight):
    return (
        '{"factors": [{"set": {"kind": "explicit", "members": [3]}, '
        f'"weight": {weight}}}]}}'
    )


@pytest.mark.parametrize(
    "spec,needle",
    [
        (_explicit_3('{"kind": "table", "values": {"3": "3", "03": "-3"}}'),
         "factors[0].weight.values: duplicate table entry for n=3"),
        (_explicit_3('{"kind": "table", "values": {"+3": "3"}}'),
         "factors[0].weight.values: key '+3' is not an integer"),
        (_explicit_3('{"kind": "linear", "c": "1.5e0"}'),
         "factors[0].weight.c: cannot parse rational '1.5e0'"),
        (_explicit_3('{"kind": "table", "values": {"3": "3", "3": "-3"}}'),
         "factors[0].weight.values: repeated key '3'"),
        ('{"shift": 0, "shift": 1, "factors": [{"set": {"kind": "all"}, '
         '"weight": {"kind": "linear", "c": "1"}}]}',
         "top level: repeated key 'shift'"),
        ('{"factors": [{"set": {"kind": "all", "kind": "explicit", "members": [3]}, '
         '"weight": {"kind": "linear", "c": "1"}}]}',
         "factors[0].set: repeated key 'kind'"),
        ('{"shift": -1, "factors": [{"set": {"kind": "all"}, '
         '"weight": {"kind": "linear", "c": "1"}}]}',
         "error: shift: shift must be nonnegative\n"),
        # Inside the grammar, but with a zero denominator.
        (_explicit_3('{"kind": "linear", "c": "1/0"}'),
         "error: factors[0].weight.c: cannot parse rational '1/0': Fraction(1, 0)\n"),
        (_explicit_3('{"kind": "table", "values": {"3": "-0/00"}}'),
         "error: factors[0].weight.values[3]: cannot parse rational '-0/00': Fraction(0, 0)\n"),
    ],
)
def test_expand_rejects_spec_outside_grammar(tmp_path, capsys, spec, needle):
    path = tmp_path / "bad.json"
    path.write_text(spec)
    code, out, err = run_cli(["expand", "--spec", str(path), "--order", "5"], capsys)
    assert code == 2
    assert out == ""
    assert needle in err


@pytest.mark.parametrize("c", ["-200000", "200000"])
def test_expand_cost_does_not_grow_with_exponent(tmp_path, capsys, c):
    # (1-x^n)^(-c) over all n: one group raised by squaring, not |c| passes.
    path = tmp_path / "huge.json"
    path.write_text(
        '{"factors": [{"set": {"kind": "all"}, '
        f'"weight": {{"kind": "linear", "c": "{c}"}}}}]}}'
    )
    code, out, _ = run_cli(
        ["expand", "--spec", str(path), "--order", "200", "--algo", "both"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert len(doc["coefficients"]) == 201


# --- values past the int-to-str digit limit ---------------------------------

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_compute_prints_past_the_digit_limit(capsys):
    m = 10**600
    code, out, err = run_cli(["compute", f"delta({m})", "--order", "8"], capsys)
    assert (code, err) == (0, "")
    values = triangular_rep_counts(m, 8)
    assert json.loads(out)["rows"] == [[n, str(Decimal(v))] for n, v in enumerate(values)]
    assert len(str(Decimal(values[8]))) > DIGIT_LIMIT


_WIDE = "7" * 5000
_ALL_C1 = '{"set": {"kind": "all"}, "weight": {"kind": "linear", "c": "1"}}'


@pytest.mark.skipif(not 0 < DIGIT_LIMIT < len(_WIDE), reason="no int-to-str digit limit below 5000")
@pytest.mark.parametrize(
    "doc, path",
    [
        ('{"shift": %s, "factors": [%s]}' % (_WIDE, _ALL_C1), "shift"),
        ('{"factors": [{"set": {"kind": "multiples", "m": %s}, '
         '"weight": {"kind": "linear", "c": "1"}}]}' % _WIDE, "factors[0].set.m"),
        ('{"factors": [%s, {"set": {"kind": "explicit", "members": [3, %s]}, '
         '"weight": {"kind": "linear", "c": "1"}}]}' % (_ALL_C1, _WIDE), "factors[1].set.members[1]"),
        ('{"factors": [{"set": {"kind": "residueUnion", "classes": [[1, 2], [-%s, 3]]}, '
         '"weight": {"kind": "linear", "c": "1"}}]}' % _WIDE, "factors[0].set.classes[1][0]"),
        ('{"factors": [{"set": {"kind": "all"}, "weight": {"kind": "linear", "c": "%s"}}]}' % _WIDE,
         "factors[0].weight.c"),
        ('{"factors": [{"set": {"kind": "all"}, "weight": {"kind": "linear", "c": "1/%s"}}]}' % _WIDE,
         "factors[0].weight.c"),
        ('{"factors": [{"set": {"kind": "all"}, "weight": {"kind": "linear", "c": %s}}]}' % _WIDE,
         "factors[0].weight.c"),
        ('{"factors": [{"set": {"kind": "explicit", "members": [3]}, '
         '"weight": {"kind": "table", "values": {"%s": "1"}}}]}' % _WIDE, "factors[0].weight.values"),
        ('{"factors": [{"set": {"kind": "explicit", "members": [3]}, '
         '"weight": {"kind": "table", "values": {"3": %s}}}]}' % _WIDE, "factors[0].weight.values[3]"),
    ],
    ids=["shift", "m", "member", "class", "c", "c-denominator", "c-int", "table-key", "table-value"],
)
def test_expand_names_an_integer_past_the_digit_limit(tmp_path, capsys, doc, path):
    """An integer of 5000 digits exits 2 with its field path and its digit
    count, and none of its digits."""
    (tmp_path / "wide.json").write_text(doc)
    code, out, err = run_cli(["expand", "--spec", str(tmp_path / "wide.json"), "--order", "5"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ")
    assert "5000 digits" in err
    assert "7777" not in err and len(err.encode()) < 300


@pytest.fixture
def huge_file(tmp_path):
    """(1-x^n)^(-10^20) over all n, whose x^300 coefficient has about 5400
    digits."""
    path = tmp_path / "huge.json"
    path.write_text(
        '{"factors": [{"set": {"kind": "all"}, '
        '"weight": {"kind": "linear", "c": "100000000000000000000"}}]}'
    )
    return path


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_expand_prints_past_the_digit_limit(huge_file, capsys, fmt):
    code, out, err = run_cli(
        ["expand", "--spec", str(huge_file), "--order", "300", "--algo", "recurrence",
         "--format", fmt],
        capsys,
    )
    assert (code, err) == (0, "")
    digits = [str(Decimal(c)) for c in coeffs_via_recurrence(load_spec(huge_file), 300)]
    assert len(digits[300]) > DIGIT_LIMIT
    if fmt == "json":
        assert json.loads(out)["coefficients"] == digits
    else:
        assert out == "n,value\n" + "".join(f"{n},{d}\n" for n, d in enumerate(digits))


def test_expand_prints_a_disagreement_past_the_digit_limit(huge_file, monkeypatch, capsys):
    # The routes agree, so the expansion is patched to differ at x^300.
    primary = coeffs_via_recurrence(load_spec(huge_file), 300).coeffs
    other = TruncatedSeries(primary[:300] + (-primary[300],))
    monkeypatch.setattr(cli, "coeffs_via_expansion", lambda spec, order: other)
    code, out, _ = run_cli(
        ["expand", "--spec", str(huge_file), "--order", "300", "--algo", "both"], capsys
    )
    assert code == 1
    assert json.loads(out)["first_disagreement"] == {
        "n": 300, "recurrence": str(Decimal(primary[300])),
        "expansion": str(Decimal(-primary[300])),
    }


def test_expand_fractional_exponent_spec(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(
        '{"shift": 0, "factors": [{"set": {"kind": "all"}, '
        '"weight": {"kind": "linear", "c": "1/2"}}]}'
    )
    code, _, err = run_cli(
        ["expand", "--spec", str(path), "--order", "5", "--algo", "expansion"], capsys
    )
    assert code == 2
    assert "integer exponents" in err


def test_expand_both_on_a_fractional_factor_past_the_order(tmp_path, capsys):
    path = tmp_path / "third.json"
    path.write_text(
        '{"factors": [{"set": {"kind": "explicit", "members": [50]}, '
        '"weight": {"kind": "linear", "c": "1/3"}}]}'
    )
    argv = ["expand", "--spec", str(path), "--algo", "both", "--order"]
    code, out, err = run_cli(argv + ["10"], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["coefficients"] == ["1"] + ["0"] * 10
    code, _, err = run_cli(argv + ["50"], capsys)
    assert code == 2
    assert "requires integer exponents; linear weight c=1/3" in err


@pytest.mark.parametrize("algo", ["recurrence", "expansion", "both"])
def test_expand_names_the_field_of_a_missing_table_entry(tmp_path, capsys, algo):
    path = tmp_path / "holey.json"
    path.write_text(
        '{"factors": [{"set": {"kind": "all"}, "weight": {"kind": "linear", "c": "1"}}, '
        '{"set": {"kind": "multiples", "m": 3}, '
        '"weight": {"kind": "table", "values": {"3": "3", "9": "9"}}}]}'
    )
    code, out, err = run_cli(
        ["expand", "--spec", str(path), "--order", "10", "--algo", algo], capsys
    )
    assert (code, out) == (2, "")
    assert err == "error: factors[1].weight.values: table weight missing for required n=6\n"


_TABLE_ON_THREES = (
    '{"set": {"kind": "multiples", "m": 3}, "weight": {"kind": "table", "values": {"3": "3"}}}'
)
_THIRD_ON_ALL = '{"set": {"kind": "all"}, "weight": {"kind": "linear", "c": "1/3"}}'
_HALF_AT_TWO = (
    '{"set": {"kind": "explicit", "members": [2]}, '
    '"weight": {"kind": "table", "values": {"2": "1"}}}'
)
_MISSING_6 = "table weight missing for required n=6"
_NOT_INTEGER = "expansion oracle requires integer exponents"


# Each route refuses the first factor, in spec order, that it cannot use.
# The recurrence takes rational exponents, so when it runs first (both) it
# reaches a later factor's missing table entry before the expansion starts.
@pytest.mark.parametrize(
    "factors,algo,err",
    [
        *(
            ((_TABLE_ON_THREES, _THIRD_ON_ALL), algo, f"factors[0].weight.values: {_MISSING_6}")
            for algo in ("recurrence", "expansion", "both")
        ),
        *(
            ((_HALF_AT_TWO, _THIRD_ON_ALL), algo,
             f"factors[0].weight.values: {_NOT_INTEGER}; factor at n=2 has exponent -1/2")
            for algo in ("expansion", "both")
        ),
        ((_THIRD_ON_ALL, _TABLE_ON_THREES), "expansion",
         f"factors[0].weight.c: {_NOT_INTEGER}; linear weight c=1/3"),
        *(
            ((_THIRD_ON_ALL, _TABLE_ON_THREES), algo, f"factors[1].weight.values: {_MISSING_6}")
            for algo in ("recurrence", "both")
        ),
    ],
)
def test_expand_names_the_first_factor_each_route_cannot_use(tmp_path, capsys, factors, algo, err):
    path = tmp_path / "spec.json"
    path.write_text(f'{{"factors": [{", ".join(factors)}]}}')
    code, out, got = run_cli(
        ["expand", "--spec", str(path), "--order", "10", "--algo", algo], capsys
    )
    assert (code, out, got) == (2, "", f"error: {err}\n")


_LINEAR_THIRDS = (
    '{"factors": [{"set": {"kind": "all"}, "weight": {"kind": "linear", "c": "1/3"}}, '
    '{"set": {"kind": "residueUnion", "classes": [[1, 4]]}, '
    '"weight": {"kind": "linear", "c": "-5/6"}}]}'
)
_TABLE_SHIFTED = (
    '{"shift": 2, "factors": [{"set": {"kind": "explicit", "members": [3, 5]}, '
    '"weight": {"kind": "table", "values": {"3": "1", "5": "7/2"}}}, '
    '{"set": {"kind": "all"}, "weight": {"kind": "linear", "c": "2/3"}}]}'
)


# sha256 of json.dumps(coefficients), pinned from the Fraction recurrence
# that the integer loop replaced.
@pytest.mark.parametrize(
    "spec,order,digest",
    [
        (_LINEAR_THIRDS, 120, "ad9c05121c78fee04d6527d9500cb1a8205d15f6d9d1b9f97bbfd33a1d226cc0"),
        (_TABLE_SHIFTED, 80, "2681566c151e9937d0ccf068a36b0b8a0f128327301e185b8514bd09fc75ef1e"),
    ],
)
def test_expand_recurrence_rational_output_is_pinned(tmp_path, capsys, spec, order, digest):
    path = tmp_path / "rational.json"
    path.write_text(spec)
    code, out, err = run_cli(
        ["expand", "--spec", str(path), "--order", str(order), "--algo", "recurrence"], capsys
    )
    assert (code, err) == (0, "")
    coefficients = json.loads(out)["coefficients"]
    assert len(coefficients) == order + 1
    assert hashlib.sha256(json.dumps(coefficients).encode()).hexdigest() == digest


# --- verify ------------------------------------------------------------------


def test_verify_all_small_order(capsys):
    code, out, _ = run_cli(["verify", "all", "--order", "30"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert len(reports) >= 8
    assert all(r["passed"] for r in reports)
    ids = [r["identity"] for r in reports]
    assert ids == sorted(ids)
    assert all(r["first_failure"] is None for r in reports)


def test_verify_negative_id_exits_one(capsys):
    code, out, _ = run_cli(["verify", "jacobi_square_verbatim", "--order", "10"], capsys)
    assert code == 1
    (report,) = json.loads(out)
    assert report["passed"] is False
    assert report["first_failure"] == {"n": 4, "lhs": "4", "rhs": "3"}


def test_verify_ramanujan_verbatim_exits_one(capsys):
    code, out, _ = run_cli(["verify", "ramanujan_a_verbatim", "--order", "10"], capsys)
    assert code == 1
    (report,) = json.loads(out)
    assert report["first_failure"]["n"] == 2


def test_verify_single_positive(capsys):
    code, out, _ = run_cli(["verify", "rogers_ramanujan_1", "--order", "80"], capsys)
    assert code == 0
    (report,) = json.loads(out)
    assert report["identity"] == "rogers_ramanujan_1"
    assert report["passed"] is True


def test_verify_unknown_id_rejected_before_running(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, err = run_cli(
        ["verify", "jacobi_square", "bogus", "--order", "10", "--out", str(out_file)],
        capsys,
    )
    assert code == 2
    assert "unknown identities: bogus" in err
    assert not out_file.exists()


@pytest.mark.parametrize("selector", ["all", "ramanujan_a"])
def test_verify_below_a_minimum_order_names_the_identity(selector, capsys):
    code, out, err = run_cli(["verify", selector, "--order", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: ramanujan_a: order must be >= 2\n"


def test_verify_all_not_combinable(capsys):
    code, _, err = run_cli(["verify", "all", "jacobi_square"], capsys)
    assert code == 2
    assert "cannot be combined" in err


def test_verify_csv(capsys):
    code, out, _ = run_cli(
        ["verify", "jacobi_square_verbatim", "--order", "10", "--format", "csv"],
        capsys,
    )
    assert code == 1
    assert out.splitlines() == [
        "identity,N,passed,failure_n,lhs,rhs",
        "jacobi_square_verbatim,10,false,4,4,3",
    ]


def test_verify_report_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, printed, _ = run_cli(
        ["verify", "triangular", "--order", "50", "--out", str(out_file)], capsys
    )
    assert code == 0
    assert printed == ""
    reports = json.loads(out_file.read_text())
    assert reports == [
        {"identity": "triangular", "N": 50, "passed": True, "first_failure": None}
    ]


# --- catalog -----------------------------------------------------------------


def test_catalog_listing(capsys):
    code, out, _ = run_cli(["catalog"], capsys)
    assert code == 0
    doc = json.loads(out)
    ids = {e["id"]: e["expected"] for e in doc["identities"]}
    assert ids["jacobi_square"] == "pass"
    assert ids["jacobi_square_verbatim"] == "fail"
    assert "gauss" in doc["specs"]
    assert "partition" in doc["sequences"]


def test_catalog_takes_no_order(capsys):
    # The listing does not depend on an order, so an order is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--order", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order 5" in capsys.readouterr().err


# --- default output bytes ----------------------------------------------------


def test_default_output_matches_the_benchmark_reference(monkeypatch, tmp_path):
    """Every seed-independent operation of the benchmark, run in process,
    against the digest and exit code that perfbench/reference.json pins."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    reference = checks.load_reference()
    out = tmp_path / "out.json"
    replayed = set()
    for name in ("catalog", "expand_both"):
        wl = workloads.build(name, 0)
        for spec, doc in wl.specs.items():
            (tmp_path / f"{spec}.json").write_bytes(workloads.spec_bytes(doc))
        for op in (op for op in wl.ops if not op.seeded):
            argv = [*op.argv, "--out", str(out)]
            if op.spec is not None:
                argv += ["--spec", str(tmp_path / f"{op.spec}.json")]
            out.unlink(missing_ok=True)
            assert main(argv) == checks.expected_exit(op), op.key
            assert checks.digest(op, out.read_bytes()) == reference[op.key], op.key
            replayed.add(op.key)
    assert replayed == set(reference)


_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_FAILS = ["jacobi_square_verbatim", "ramanujan_a_verbatim", "p_regular_verbatim_2"]
_GAUSS = ["expand", "--spec", "gauss.json", "--order", "30", "--algo"]
_AVAILABLE = ("available: sigma, sigma_odd, sigma_even, sigma_rm(r,m), s, t, T, a, partition, "
              "q_regular(p), rr1, rr2, delta(m)\n")
_KNOWN = ("known: delta_1, delta_10, delta_12, delta_2, delta_4, delta_6, delta_8, jacobi_square, "
          "jacobi_square_verbatim, p_regular_2, p_regular_3, p_regular_5, p_regular_7, "
          "p_regular_verbatim_2, partition_recurrence, ramanujan_a, ramanujan_a_verbatim, "
          "rogers_ramanujan_1, rogers_ramanujan_2, square_eta_quotient, triangular\n")


def _plain_command_error(*argv):
    """argparse's own last stderr line for an unknown command in ``argv``,
    from a plain parser with the same commands, in the running Python's
    format."""
    plain = argparse.ArgumentParser(prog="divprod")
    sub = plain.add_subparsers(dest="command", required=True)
    for name in ("compute", "expand", "verify", "catalog"):
        sub.add_parser(name)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit):
        plain.parse_args(list(argv))
    return err.getvalue().splitlines(keepends=True)[-1]


# (argv, exit code, sha256 of stdout, stderr) for every command in both
# formats and the usage errors; expand runs on gauss.json in the working
# directory, whose path the JSON document echoes.  Where argparse exits, the
# stderr pinned is its last line: the usage lines above it wrap at the
# terminal's width.
@pytest.mark.parametrize(
    "argv,code,stdout_sha256,stderr",
    [
        (["catalog"], 0, "6e09683daed39e362d3b159871feb9d3a12557cc0a57e33f5a4bdc9423e18fa4", ""),
        (["catalog", "--format", "csv"], 0,
         "0f1a178e4e310a44673331000c209da0b5df4467a3d15b9b34a0539b1f880334", ""),
        (["compute", "a", "--order", "30"], 0,
         "1315eef28dddaf9468ab8cb24595ee00ee751b12a328779c76f9493e312ee31e", ""),
        (["compute", "a", "--order", "30", "--format", "csv"], 0,
         "8f2b02dd7f962932cfea653d652081fc41465616dae4361550df3e7f5f66cb56", ""),
        (["compute", "sigma_rm(1,4)", "--order", "30"], 0,
         "919c46a403a5d184b550a231f740c9afcb8644f8f8d10b8c63c3e7ba9e35bad0", ""),
        (["compute", "sigma_rm(1,4)", "--order", "30", "--format", "csv"], 0,
         "b97b582b7f2173ee801b204008f9ff6dade0b67bba5a6dd43f4be05ae94af375", ""),
        (["compute", "delta(3)", "--order", "30"], 0,
         "905d0f8cb2cdf5bb0677bded2933911504944101bf9757f1cf943617fca5184f", ""),
        (["compute", "delta(3)", "--order", "30", "--format", "csv"], 0,
         "8ed5fe631cb1423821e1ae3152e5d52822c0f3388a58f2b47b6c8a93b46da5b1", ""),
        (["verify", "all", "--order", "30"], 0,
         "adc267a7a4a8d6dcb97569db87602f00c7ab4ed4ca02e55c12e44523045223ed", ""),
        (["verify", "all", "--order", "30", "--format", "csv"], 0,
         "ba2d5137853f66b0793d771e027f3f1d2cdf44804dbfbe9a4cd37bb0f739dc37", ""),
        (["verify", *_FAILS, "--order", "30"], 1,
         "b3df69f9db0d561bb6e976806cba75b25957970cf0100dff67b65be442888c1c", ""),
        (["verify", *_FAILS, "--order", "30", "--format", "csv"], 1,
         "75b563546dd55d741800ce3bdbb34f03c3a5c2fbcde7f0d1b4fcb94582b5665c", ""),
        ([*_GAUSS, "both"], 0,
         "fe10fd72eab54d5ca0d2b2bb8f57d2d6c24c8d0e9389854299edf5cff44ce6ca", ""),
        ([*_GAUSS, "recurrence"], 0,
         "1d65672bdafe7bc83795b43735ac8a7187a7d551d13487cc5bea5e3aada404a9", ""),
        ([*_GAUSS, "expansion"], 0,
         "f9680b76df0a980c0550905367df52bb15e911d2208badcbcb05e8520eb57e28", ""),
        *(
            ([*_GAUSS, algo, "--format", "csv"], 0,
             "d9340fdbfc7f169d333a125d66ccfffd8109ddde19b9b9de9e357c8ffdfed8b5", "")
            for algo in ("both", "recurrence", "expansion")
        ),
        (["compute", "mobius"], 2, _EMPTY, "error: unknown sequence 'mobius'; " + _AVAILABLE),
        (["verify", "no_such_identity"], 2, _EMPTY,
         "error: unknown identities: no_such_identity; " + _KNOWN),
        # A name, an id or a choice is echoed up to 100 characters and named
        # by its length past them; a numeric argument past the int-to-str
        # limit is named by its digit count.
        (["compute", "x" * 100], 2, _EMPTY, f"error: unknown sequence '{'x' * 100}'; " + _AVAILABLE),
        (["compute", "x" * 5000], 2, _EMPTY,
         "error: unknown sequence of 5000 characters; " + _AVAILABLE),
        (["compute", "delta(" + "1" * 5000 + ")"], 2, _EMPTY,
         "error: sequence argument of 5000 digits is past the interpreter's int-to-str limit\n"),
        (["compute", "sigma_rm(1,-" + "1" * 5000 + ")"], 2, _EMPTY,
         "error: sequence argument of 5000 digits is past the interpreter's int-to-str limit\n"),
        (["verify", "bogus", "x" * 5000], 2, _EMPTY,
         "error: unknown identities: bogus, an id of 5000 characters; " + _KNOWN),
        (["catalog", "--format", "x" * 5000], 2, _EMPTY,
         "divprod catalog: error: argument --format: invalid choice of 5000 characters "
         "(choose from 'json', 'csv')\n"),
        ([*_GAUSS, "x" * 101], 2, _EMPTY,
         "divprod expand: error: argument --algo: invalid choice of 101 characters "
         "(choose from 'recurrence', 'expansion', 'both')\n"),
        (["verify", "all", "--order", "0"], 2, _EMPTY, "error: --order must be >= 1\n"),
        (["expand", "--spec", "gauss.json", "--order", "-1"], 2, _EMPTY,
         "error: --order must be nonnegative\n"),
        (["compute", "s", "--order", "30"], 0,
         "38f85101511d2fb72462a8e65f45e09477f00ff31183bcc8070452a22656b6c4", ""),
        (["compute", "s", "--order", "30", "--format", "csv"], 0,
         "36f4a1fe44462af2c78d6727d0b8f59f2ce570e6de070897247539ba64c31e13", ""),
        (["compute", "t", "--order", "30"], 0,
         "edab92c645948fe2cd8d307f15a474af728a643b8f81b34e24d55e04e7f754d7", ""),
        (["compute", "t", "--order", "30", "--format", "csv"], 0,
         "d9340fdbfc7f169d333a125d66ccfffd8109ddde19b9b9de9e357c8ffdfed8b5", ""),
        (["compute", "sigma", "--order", "30"], 0,
         "92e8030e010e47c16503b6a1ba1c5fb7fcc0435a5de525f15b8478c7a51ff706", ""),
        (["compute", "sigma", "--order", "30", "--format", "csv"], 0,
         "bdbcddcae6c1b8cb2bb9d20e688ced4ee199b0228041f718bcfeb42cc07d38c7", ""),
        (["compute", "sigma_odd", "--order", "30"], 0,
         "7827900dfad82ff1198baabc821880bcb4242533bf0b52269f50d694547fbd13", ""),
        (["compute", "sigma_odd", "--order", "30", "--format", "csv"], 0,
         "2978afb53304cb50c371376049ca4f26ac34c69ad706a6f45c8d202e4ad9bcf2", ""),
        (["compute", "sigma", "--order", "abc"], 2, _EMPTY,
         "divprod compute: error: argument --order: invalid int value: 'abc'\n"),
        (["compute", "sigma", "--order", "1" * 5000], 2, _EMPTY,
         "divprod compute: error: argument --order: integer of 5000 digits is past the "
         "interpreter's int-to-str limit\n"),
        # A literal that is not all digits is echoed up to 100 characters,
        # and named by its length past them.
        (["compute", "sigma", "--order", "1" * 99 + "x"], 2, _EMPTY,
         f"divprod compute: error: argument --order: invalid int value: '{'1' * 99}x'\n"),
        (["compute", "sigma", "--order", "1" * 4999 + "x"], 2, _EMPTY,
         "divprod compute: error: argument --order: invalid int value of 5000 characters\n"),
        (["catalog", "x" * 100], 2, _EMPTY,
         f"divprod: error: unrecognized arguments: {'x' * 100}\n"),
        (["catalog", "x" * 5000], 2, _EMPTY,
         "divprod: error: unrecognized arguments: an argument of 5000 characters\n"),
        (["verify", "all", "--order", "5", "--zz", "x" * 5000], 2, _EMPTY,
         "divprod: error: unrecognized arguments: --zz an argument of 5000 characters\n"),
        # An unknown command: argparse's own message, and past 100
        # characters the command named by its length.
        (["zzz"], 2, _EMPTY, _plain_command_error("zzz")),
        (["x" * 5000], 2, _EMPTY,
         "divprod: error: argument command: invalid choice of 5000 characters "
         "(choose from 'compute', 'expand', 'verify', 'catalog')\n"),
        (["--", "x" * 101, "--order", "5"], 2, _EMPTY,
         "divprod: error: argument command: invalid choice of 101 characters "
         "(choose from 'compute', 'expand', 'verify', 'catalog')\n"),
        # A path that cannot be opened is echoed up to 100 characters and
        # named by its length past them.
        (["expand", "--spec", "missing.json", "--order", "3"], 2, _EMPTY,
         "error: [Errno 2] No such file or directory: 'missing.json'\n"),
        (["verify", "all", "--order", "5", "--out", "/nonexistent/abc"], 2, _EMPTY,
         "error: [Errno 2] No such file or directory: '/nonexistent/abc'\n"),
        (["expand", "--spec", "x" * 5000, "--order", "3"], 2, _EMPTY,
         "error: [Errno 36] File name too long: a path of 5000 characters\n"),
        (["verify", "all", "--order", "5", "--out", "/nonexistent/" + "x" * 5000], 2, _EMPTY,
         "error: [Errno 36] File name too long: a path of 5013 characters\n"),
        (["expand", "--spec", "/nonexistent/" + "x" * 87, "--order", "3"], 2, _EMPTY,
         f"error: [Errno 2] No such file or directory: '/nonexistent/{'x' * 87}'\n"),
        (["expand", "--spec", "/nonexistent/" + "x" * 88, "--order", "3"], 2, _EMPTY,
         "error: [Errno 2] No such file or directory: a path of 101 characters\n"),
        # A residue r or modulus m is echoed up to 100 digits and named by
        # its digit count past them, from a sequence name or a spec class.
        (["compute", f"sigma_rm({'1' * 100},3)", "--order", "5"], 2, _EMPTY,
         f"error: non-canonical residue: need 0 <= r < m, got r={'1' * 100}, m=3\n"),
        (["compute", f"sigma_rm({'1' * 4000},3)", "--order", "5"], 2, _EMPTY,
         "error: non-canonical residue: need 0 <= r < m, got r of 4000 digits, m=3\n"),
        (["compute", f"sigma_rm({'9' * 102},{'1' * 101})", "--order", "5"], 2, _EMPTY,
         "error: non-canonical residue: need 0 <= r < m, got r of 102 digits, m of 101 digits\n"),
        (["expand", "--spec", "residue.json", "--order", "5"], 2, _EMPTY,
         "error: factors[0].set: non-canonical residue: need 0 <= r < m, got r of 4000 digits, m=3\n"),
        # Any other spec value past 100 characters is named by its type and size.
        (["expand", "--spec", "kind.json", "--order", "5"], 2, _EMPTY,
         "error: factors[0].set.kind: unknown set kind a string of 5000 characters\n"),
        (["expand", "--spec", "m.json", "--order", "5"], 2, _EMPTY,
         "error: factors[0].set.m: expected an integer, got a list of length 20000\n"),
        (["compute", "T", "--order", "-1"], 2, _EMPTY, "error: --order must be nonnegative\n"),
        # One "--" before the command is dropped on every Python, as the
        # argparse of current 3.13 releases drops it; after two, the second
        # is read as the command.
        (["--", "compute", "sigma", "--order", "5"], 0,
         "707a93d3ec3be6c109b9223ffd113baf6820b03ccde271f322ceb12dbd3c02f0", ""),
        (["--", "--", "compute", "sigma", "--order", "5"], 2, _EMPTY,
         _plain_command_error("--", "--")),
    ],
)
def test_output_bytes_are_pinned(tmp_path, monkeypatch, capsys, argv, code, stdout_sha256, stderr):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gauss.json").write_text(GAUSS_JSON)
    (tmp_path / "residue.json").write_text(_linear_doc(([[int("1" * 4000), 3]], "1")))
    weight = {"kind": "linear", "c": "1"}
    for name, set_doc in (("kind", {"kind": "x" * 5000}),
                          ("m", {"kind": "multiples", "m": [0] * 20000})):
        doc = {"factors": [{"set": set_doc, "weight": weight}]}
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    try:
        got_code, out, err = run_cli(argv, capsys)
    except SystemExit as exc:
        got_code, (out, err) = exc.code, capsys.readouterr()
        err = err.splitlines(keepends=True)[-1]
    assert (got_code, hashlib.sha256(out.encode()).hexdigest(), err) == (
        code, stdout_sha256, stderr,
    )



@pytest.mark.parametrize("help_flag", ["-h", "--he", "--help"])
def test_a_help_request_before_a_long_command_prints_help(capsys, help_flag):
    # argparse stops at the help request before it reads the command.
    with pytest.raises(SystemExit) as exc:
        main([help_flag, "x" * 5000])
    assert exc.value.code == 0
    assert capsys.readouterr().out == cli.build_parser().format_help()


def _last_error_line(parse, capsys):
    with pytest.raises(SystemExit) as exc:
        parse()
    assert exc.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize(
    "command, option, choices",
    [("catalog", "--format", ("json", "csv")),
     ("expand", "--algo", ("recurrence", "expansion", "both"))],
)
@pytest.mark.parametrize("value", ["xml", "x" * 100])
def test_a_short_invalid_choice_is_argparses_own_message(capsys, command, option, choices, value):
    # The message of a plain option with the same choices, in the format of
    # the running Python's argparse.
    plain = argparse.ArgumentParser(prog=f"divprod {command}")
    plain.add_argument(option, choices=choices)
    expected = _last_error_line(lambda: plain.parse_args([option, value]), capsys)
    argv = [command, option, value] + (["--spec", "gauss.json"] if command == "expand" else [])
    assert _last_error_line(lambda: main(argv), capsys) == expected

@pytest.mark.parametrize(
    "argv",
    [
        ["catalog"],
        *(["compute", name, "--order", "12"] for name in
          ("sigma", "sigma_rm(1,4)", "a", "partition", "q_regular(3)", "delta(3)")),
        ["verify", "all", "--order", "30"],
        ["verify", *_FAILS, "--order", "30"],
        *([*_GAUSS, algo] for algo in ("both", "recurrence", "expansion")),
    ],
)
def test_csv_rows_have_the_header_field_count(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gauss.json").write_text(GAUSS_JSON)
    code, out, _ = run_cli([*argv, "--format", "csv"], capsys)
    assert code in (0, 1)
    header, *rows = csv.reader(out.splitlines())
    assert rows
    assert [len(row) for row in rows] == [len(header)] * len(rows)


# --- process-level behavior --------------------------------------------------


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one in-process call; an argparse exit
    is recorded as ("SystemExit", code)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_answers_like_a_fresh_one(gauss_file, capsys):
    # main builds its parser once per process; each call in a sequence must
    # give what the same call gives on a freshly built parser.
    calls = [
        ["expand", "--spec", str(gauss_file), "--order", "12"],
        ["verify", "partition_recurrence", "p_regular_2", "--order", "40", "--format", "csv"],
        ["verify", "no_such_identity", "--order", "5"],
        ["verify", "--order", "5"],
        ["expand", "--spec", str(gauss_file), "--order", "7", "--algo", "recurrence"],
        ["compute", "q_regular(3)", "--order", "9", "--format", "csv"],
        ["catalog", "--order", "x"],
        ["verify", "all", "--order", "20"],
    ]
    cli.build_parser.cache_clear()
    reused = [_outcome(argv, capsys) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [
        0, 0, 2, ("SystemExit", 2), 0, 0, ("SystemExit", 2), 0,
    ]


def test_exit_codes_and_byte_stability_subprocess():
    first = run_cli_subprocess(["compute", "partition", "--order", "12"])
    second = run_cli_subprocess(["compute", "partition", "--order", "12"])
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.encode() == second.stdout.encode()

    bad = run_cli_subprocess(["verify", "ramanujan_a_verbatim", "--order", "5"])
    assert bad.returncode == 1

    usage = run_cli_subprocess(["expand", "--order", "5"])  # missing --spec
    assert usage.returncode == 2


def test_json_and_csv_encode_identical_values(capsys):
    code, json_out, _ = run_cli(["compute", "delta(2)", "--order", "8"], capsys)
    assert code == 0
    code, csv_out, _ = run_cli(
        ["compute", "delta(2)", "--order", "8", "--format", "csv"], capsys
    )
    assert code == 0
    json_rows = [(r[0], r[1]) for r in json.loads(json_out)["rows"]]
    csv_rows = [
        (int(line.split(",")[0]), line.split(",")[1])
        for line in csv_out.splitlines()[1:]
    ]
    assert json_rows == csv_rows
