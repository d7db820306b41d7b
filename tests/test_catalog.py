"""Identity catalog: hand-checked small cases, full runs, pinned negatives."""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from divprod.catalog import (
    ALL_CHECKS,
    CATALOG,
    FAIL,
    POSITIVE_CHECKS,
    Tables,
    delta,
    p_regular,
    p_regular_verbatim,
    rogers_ramanujan,
    run_all,
    run_check,
)
from divprod.cli import main
from divprod.divisors import sigma, sigma_even, sigma_odd
from divprod.products import (
    Factor,
    ProductSpec,
    SetDescriptor,
    WeightSpec,
    coeffs_via_expansion,
)
from divprod.sequences import lambert_cubic_by_divisors


# --- hand-checked instances ------------------------------------------------


def test_partition_recurrence_hand_values():
    # n=5: 5*7 = 1*5 + 3*3 + 4*2 + 7*1 + 6*1 = 35
    assert 5 * 7 == sigma(1) * 5 + sigma(2) * 3 + sigma(3) * 2 + sigma(4) * 1 + sigma(5) * 1
    assert run_check("partition_recurrence", 5).passed


def test_jacobi_square_hand_values():
    # n=1: -1 = -(1+1)/2 with an empty sum
    # n=4:  4 = -(7+1)/2 + (sigma(3)+sigma_odd(3)) = -4 + 8
    assert -(sigma(4) + sigma_odd(4)) // 2 + (sigma(3) + sigma_odd(3)) == 4
    assert run_check("jacobi_square", 4).passed


def test_triangular_hand_values():
    # n=6: terms at T(k) in {0,1,3}: (4-8) + (6-0) + (4-0) = 6
    acc = (
        (sigma_odd(6) - sigma_even(6))
        + (sigma_odd(5) - sigma_even(5))
        + (sigma_odd(3) - sigma_even(3))
    )
    assert acc == 6
    assert run_check("triangular", 6).passed


def test_ramanujan_a_hand_values():
    # n=2: (2-1)*8 = 8*a(1)*(sigma_odd(1)-sigma_even(1))
    # n=3: 2*28 = 8*(a(2)*1 + a(1)*(1-2)) = 8*7
    a = [lambert_cubic_by_divisors(n) for n in range(4)]
    assert (2 - 1) * a[2] == 8 * a[1] * (sigma_odd(1) - sigma_even(1))
    assert (3 - 1) * a[3] == 8 * (a[2] * 1 + a[1] * (sigma_odd(2) - sigma_even(2)))
    assert run_check("ramanujan_a", 3).passed


def test_p_regular_hand_values():
    # p=2, n=2: 2*1 = 1*(sigma(2)-sigma_{0,2}(2)) + 1*(sigma(1)-sigma_{0,2}(1))
    assert 2 * 1 == (3 - 2) + (1 - 0)
    assert p_regular(2).check(2).passed
    assert p_regular(3).check(4).passed


def test_rogers_ramanujan_hand_values():
    # which=1, n=2: 2*R1(2) = R1(0)*1 + R1(1)*1
    # which=2, n=2: 2*R2(2) = R2(0)*2 (divisor 2 is 2 mod 5)
    assert rogers_ramanujan(1).check(2).passed
    assert rogers_ramanujan(2).check(2).passed


def test_square_eta_quotient_hand_values():
    # n=4: 4 = (7-15+4) + 2*(sigma(3)-0+0)
    assert 4 == (sigma(4) - 5 * sigma(2) + 4 * sigma(1)) + 2 * sigma(3)
    assert run_check("square_eta_quotient", 4).passed


def test_delta_hand_values():
    # m=1, n=3: 3*1 = (1-0)*0 + (1-2)*1 + (4-0)*1
    # m=2, n=1: 1*2 = 2*(1-0)*1
    assert delta(1).check(3).passed
    assert delta(2).check(1).passed


# --- moderate full runs ----------------------------------------------------


@pytest.mark.parametrize("identity_id", sorted(POSITIVE_CHECKS))
def test_positive_checks_pass_at_moderate_order(identity_id):
    report = run_check(identity_id, 60)
    assert report.passed, report.to_dict()
    assert report.identity_id == identity_id
    assert report.order_checked == 60
    assert report.first_failure is None


def test_run_all_sorted_and_passing():
    reports = run_all(40)
    assert [r.identity_id for r in reports] == sorted(POSITIVE_CHECKS)
    assert all(r.passed for r in reports)


def test_run_check_unknown_id():
    with pytest.raises(ValueError, match="unknown identity"):
        run_check("fermat_last", 10)


def test_delta_check_rejects_inadmissible_m():
    with pytest.raises(ValueError, match="admissible m"):
        delta(3).check(50)


def test_ramanujan_a_check_needs_order_two():
    with pytest.raises(ValueError, match="order"):
        run_check("ramanujan_a", 1)


# --- packed relation sums against the schoolbook sum -----------------------


def schoolbook_right_side(relation, t):
    """scale * sum_k kernel[k] * operand[n - k] + diagonal[n] for n = start..N,
    summed term by term."""
    kernel, operand = t(relation.kernel), t(relation.operand)
    diagonal = t(relation.diagonal) if relation.diagonal else [0] * (t.order + 1)
    return [
        relation.scale * sum(kernel[k] * operand[n - k] for k in range(n + 1)) + diagonal[n]
        for n in range(relation.start, t.order + 1)
    ]


@pytest.mark.parametrize(
    "identity", [r for r in CATALOG if r.relation is not None], ids=lambda r: r.id
)
def test_relation_right_side_matches_schoolbook_sum(identity):
    relation = identity.relation
    for order in (relation.start, relation.start + 1, 7, 60, 300):
        t = Tables(order)
        _, right = relation.sides(t)
        assert list(right) == schoolbook_right_side(relation, t)


# --- pinned negative tests -------------------------------------------------


def test_jacobi_square_verbatim_fails_at_four():
    report = run_check("jacobi_square_verbatim", 10)
    assert not report.passed
    assert report.first_failure.n == 4
    assert report.first_failure.lhs == 4
    assert report.first_failure.rhs == 3


def test_ramanujan_a_verbatim_fails_at_two():
    report = run_check("ramanujan_a_verbatim", 10)
    assert not report.passed
    assert report.first_failure.n == 2
    assert report.first_failure.lhs == 16
    assert report.first_failure.rhs == 0


def test_p_regular_verbatim_fails_at_one():
    report = p_regular_verbatim(2).check(10)
    assert not report.passed
    assert report.first_failure.n == 1
    assert report.first_failure.lhs == 1
    assert report.first_failure.rhs == -1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reciprocal_orientation_has_negative_coefficients(p):
    reciprocal = ProductSpec(
        factors=(
            Factor(SetDescriptor.all_naturals(), WeightSpec.linear(-1)),
            Factor(SetDescriptor.multiples(p), WeightSpec.linear(1)),
        )
    )
    coeffs = coeffs_via_expansion(reciprocal, 40).coeffs
    assert any(c < 0 for c in coeffs)


def test_negative_ids_registered_but_not_in_all():
    negative = {r.id for r in CATALOG if r.expected == FAIL}
    assert negative == {
        "jacobi_square_verbatim",
        "ramanujan_a_verbatim",
        "p_regular_verbatim_2",
    }
    assert not negative & set(POSITIVE_CHECKS)
    assert set(ALL_CHECKS) == negative | set(POSITIVE_CHECKS)


# --- report shape and purity -----------------------------------------------


def test_report_serialization_shape():
    good = run_check("jacobi_square", 8).to_dict()
    assert good == {
        "identity": "jacobi_square",
        "N": 8,
        "passed": True,
        "first_failure": None,
    }
    bad = run_check("jacobi_square_verbatim", 8).to_dict()
    assert bad["passed"] is False
    assert bad["first_failure"] == {"n": 4, "lhs": "4", "rhs": "3"}


def test_checks_are_pure_under_concurrency():
    ids = sorted(POSITIVE_CHECKS)
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(lambda i: run_check(i, 30), ids))
    sequential = [run_check(i, 30) for i in ids]
    assert concurrent == sequential


# --- the records ------------------------------------------------------------


def test_records_match_the_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    listed = json.loads(capsys.readouterr().out)["identities"]
    assert sorted((e["id"], e["expected"]) for e in listed) == sorted(
        (r.id, r.expected) for r in CATALOG
    )
    assert len(CATALOG) == len(ALL_CHECKS) == 21


@pytest.mark.parametrize("order", [10, 500])
@pytest.mark.parametrize(
    "identity_id, n, lhs, rhs",
    [
        ("jacobi_square_verbatim", 4, 4, 3),
        ("ramanujan_a_verbatim", 2, 16, 0),
        ("p_regular_verbatim_2", 1, 1, -1),
    ],
)
def test_expected_failures_stay_pinned(identity_id, n, lhs, rhs, order):
    report = run_check(identity_id, order)
    assert not report.passed
    assert (report.first_failure.n, report.first_failure.lhs, report.first_failure.rhs) == (
        n,
        lhs,
        rhs,
    )


def test_jacobi_square_verbatim_holds_at_one():
    # the verbatim range k = 1..n-1 is empty at n = 1: -1 = -(1+1)/2
    assert run_check("jacobi_square_verbatim", 1).passed


@pytest.mark.parametrize(
    "family, bad, message",
    [(p_regular, 1, "p must be"), (p_regular_verbatim, 1, "p must be"),
     (rogers_ramanujan, 3, "which must be"), (delta, 3, "admissible m")],
)
def test_families_reject_bad_parameters(family, bad, message):
    with pytest.raises(ValueError, match=message):
        family(bad)

