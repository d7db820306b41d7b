"""CLI contract: selectors, formats, exit codes, byte stability."""

import hashlib
import json
import subprocess
import sys

import pytest

from divprod.cli import main
from divprod.products import gauss_spec, jacobi_spec


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
    path.write_text(gauss_spec().to_json())
    return path


def test_expand_both_agrees(gauss_file, capsys):
    code, out, _ = run_cli(
        ["expand", "--spec", str(gauss_file), "--order", "6"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == ["1", "1", "0", "1", "0", "0", "1"]
    assert doc["agree"] is True
    assert doc["first_disagreement"] is None


def test_expand_recurrence_only(tmp_path, capsys):
    path = tmp_path / "jacobi.json"
    path.write_text(jacobi_spec().to_json())
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


# --- process-level behavior --------------------------------------------------


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
