"""Acceptance suite: every exit criterion at its stated order, exact arithmetic.

Each test prints one `[PASS]`/`[FAIL]` line (visible under `pytest -s` or
`pytest -v --capture=no`) and then asserts, so the suite doubles as a
machine-checkable report.  All comparisons are exact equality; the only
tolerances anywhere are the two stated wall-clock budgets.
"""

import json
import random
import subprocess
import sys
import time

from divprod.catalog import (
    delta,
    p_regular,
    rogers_ramanujan,
    run_check,
)
from divprod.products import (
    Factor,
    ProductSpec,
    SetDescriptor,
    WeightSpec,
    builtin_spec,
    coeffs_via_expansion,
    coeffs_via_recurrence,
)
from divprod.sequences import (
    lambert_cubic_by_divisors,
    lambert_cubic_prefix,
    partition_counts,
    regular_partition_counts,
    rogers_ramanujan_sum_side,
    triangular_rep_counts,
)

BUILTIN_NAMES = [
    "gauss",
    "jacobi",
    "ramanujan",
    "rr1",
    "rr2",
    "p_regular(2)",
    "p_regular(3)",
    "p_regular(5)",
    "delta(1)",
    "delta(2)",
    "delta(4)",
    "delta(6)",
    "delta(8)",
    "delta(10)",
    "square_quotient",
]

RANDOM_SEED = 20260809


def _criterion(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert passed, f"acceptance criterion failed: {name} {suffix}"


def _random_spec(rng: random.Random) -> ProductSpec:
    """Integer-exponent spec: residue moduli <= 6, |linear c| <= 8, integer
    table exponents; occasionally shifted."""
    factors = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["all", "residues", "residues", "multiples", "explicit", "table"])
        if kind == "table":
            members = sorted(rng.sample(range(1, 20), rng.randint(1, 4)))
            weight = WeightSpec.table({n: n * rng.randint(-8, 8) for n in members})
            factors.append(Factor(SetDescriptor.explicit(members), weight))
            continue
        if kind == "all":
            s = SetDescriptor.all_naturals()
        elif kind == "residues":
            m = rng.randint(1, 6)
            rs = rng.sample(range(m), rng.randint(1, min(3, m)))
            s = SetDescriptor.residue_union([(r, m) for r in sorted(rs)])
        elif kind == "multiples":
            s = SetDescriptor.multiples(rng.randint(1, 6))
        else:
            s = SetDescriptor.explicit(sorted(rng.sample(range(1, 30), rng.randint(1, 5))))
        factors.append(Factor(s, WeightSpec.linear(rng.randint(-8, 8))))
    return ProductSpec(factors=tuple(factors), shift=rng.randint(0, 2))


def test_01_recurrence_expansion_equivalence():
    started = time.perf_counter()
    for name in BUILTIN_NAMES:
        spec = builtin_spec(name)
        assert coeffs_via_recurrence(spec, 500) == coeffs_via_expansion(spec, 500), name
    rng = random.Random(RANDOM_SEED)
    for i in range(100):
        spec = _random_spec(rng)
        assert coeffs_via_recurrence(spec, 200) == coeffs_via_expansion(spec, 200), (
            i,
            spec,
        )
    elapsed = time.perf_counter() - started
    _criterion(
        "recurrence/expansion oracle equivalence: 15 built-in instances at N=500 "
        "plus 100 random specs at N=200",
        elapsed < 60.0,
        f"{elapsed:.1f}s, budget 60s",
    )


def test_02_jacobi_and_gauss_fixtures():
    jacobi = coeffs_via_expansion(builtin_spec("jacobi"), 400)
    closed = [0] * 401
    closed[0] = 1
    k = 1
    while k * k <= 400:
        closed[k * k] = -2 if k % 2 else 2
        k += 1
    ok = list(jacobi.coeffs) == closed

    gauss = coeffs_via_expansion(builtin_spec("gauss"), 400)
    tris = {k * (k + 1) // 2 for k in range(28)}  # T(27) = 378 <= 400 < T(28)
    ok = ok and list(gauss.coeffs) == [1 if n in tris else 0 for n in range(401)]
    _criterion(
        "product fixtures at N=400: alternating-square series and "
        "triangular-indicator series",
        ok,
    )


def test_03_lambert_cubic_three_routes():
    order = 2000
    by_series = lambert_cubic_prefix(order)
    by_product = coeffs_via_recurrence(builtin_spec("ramanujan"), order)
    ok = True
    for n in range(1, order + 1):
        if not (
            lambert_cubic_by_divisors(n) == by_series[n] == by_product[n]
        ):
            ok = False
            break
    _criterion(
        "cubic Lambert coefficients agree three ways (divisor sum, double sum, "
        "shifted-product recurrence) for 1 <= n <= 2000",
        ok,
    )


def test_04_partition_recurrence():
    started = time.perf_counter()
    spot = partition_counts(5)[5] == 7
    report = run_check("partition_recurrence", 2000)
    elapsed = time.perf_counter() - started
    _criterion(
        "partition recurrence n*p(n) = sum sigma(k) p(n-k) for 1 <= n <= 2000, "
        "spot p(5)=7",
        spot and report.passed and elapsed < 10.0,
        f"{elapsed:.1f}s, budget 10s",
    )


def test_05_square_identity_bounds():
    good = run_check("jacobi_square", 10000)
    bad = run_check("jacobi_square_verbatim", 10000)
    pinned = (
        not bad.passed
        and bad.first_failure.n == 4
        and bad.first_failure.lhs == 4
        and bad.first_failure.rhs == 3
    )
    _criterion(
        "square-indicator identity holds to N=10000; verbatim bounds fail first "
        "at n=4 with lhs=4, rhs=3",
        good.passed and pinned,
    )


def test_06_triangular_identity():
    report = run_check("triangular", 5000)
    _criterion("triangular-indicator identity holds for 1 <= n <= 5000", report.passed)


def test_07_cubic_coefficient_recurrence():
    good = run_check("ramanujan_a", 2000)
    bad = run_check("ramanujan_a_verbatim", 2000)
    _criterion(
        "shift-corrected cubic-coefficient recurrence holds for 2 <= n <= 2000; "
        "unshifted form fails first at n=2",
        good.passed and not bad.passed and bad.first_failure.n == 2,
    )


def test_08_p_regular_recurrences():
    spots = (
        regular_partition_counts(2, 5)[5] == 3
        and regular_partition_counts(3, 4)[4] == 4
    )
    ok = all(p_regular(p).check(1000).passed for p in (2, 3, 5, 7))
    _criterion(
        "bounded-repetition partition recurrence holds for p in {2,3,5,7}, "
        "1 <= n <= 1000, spot Q2(5)=3 Q3(4)=4",
        spots and ok,
    )


def test_09_rogers_ramanujan_recurrences():
    spots = (
        rogers_ramanujan_sum_side(1, 4)[4] == 2
        and rogers_ramanujan_sum_side(2, 4)[4] == 1
    )
    ok = (
        rogers_ramanujan(1).check(1000).passed
        and rogers_ramanujan(2).check(1000).passed
    )
    _criterion(
        "both Rogers-Ramanujan coefficient recurrences hold for 1 <= n <= 1000 "
        "with sum side pinned to product side, spot R1(4)=2 R2(4)=1",
        spots and ok,
    )


def test_10_square_quotient_and_delta():
    square_ok = run_check("square_eta_quotient", 5000).passed
    spots = triangular_rep_counts(2, 3)[1] == 2 and triangular_rep_counts(2, 3)[3] == 2
    delta_ok = all(
        delta(m).check(500).passed for m in (1, 2, 4, 6, 8, 10, 12)
    )
    _criterion(
        "eta-quotient square identity holds to N=5000; triangular-representation "
        "recurrence holds for m in {1,2,4,6,8,10,12} to N=500, spot d2(1)=d2(3)=2",
        square_ok and spots and delta_ok,
    )


def test_11_recurrence_integrality():
    def integral(series):
        return all(type(c) is int for c in series)

    ok = all(integral(coeffs_via_recurrence(builtin_spec(name), 500)) for name in BUILTIN_NAMES)
    rng = random.Random(RANDOM_SEED)
    ok = ok and all(
        integral(coeffs_via_recurrence(_random_spec(rng), 200)) for _ in range(100)
    )
    _criterion(
        "every recurrence coefficient of an integer-exponent spec is an int "
        "(built-ins at N=500, 100 random specs at N=200)",
        ok,
    )


def _run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "divprod", *argv], capture_output=True, text=True
    )


def test_12_cli_verify_contract(tmp_path):
    report_path = tmp_path / "report.json"
    alright = _run_cli(["verify", "all", "--order", "500", "--out", str(report_path)])
    reports = json.loads(report_path.read_text())
    shape_ok = (
        alright.returncode == 0
        and len(reports) >= 8
        and all(
            set(r) == {"identity", "N", "passed", "first_failure"} for r in reports
        )
        and all(r["passed"] and r["N"] == 500 for r in reports)
    )
    neg1 = _run_cli(["verify", "jacobi_square_verbatim", "--order", "100"])
    neg2 = _run_cli(["verify", "ramanujan_a_verbatim", "--order", "100"])
    _criterion(
        "CLI: verify all --order 500 exits 0 with a well-formed JSON report; "
        "both pinned negative ids exit 1 individually",
        shape_ok and neg1.returncode == 1 and neg2.returncode == 1,
    )
