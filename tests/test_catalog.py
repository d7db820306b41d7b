"""Identity catalog: hand-checked small cases, full runs, pinned negatives."""

import inspect
import json
import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divprod.catalog as catalog
from divprod.catalog import (
    ALL_CHECKS,
    CATALOG,
    FAIL,
    PASS,
    Identity,
    PREFIX,
    Tables,
    _product_kernel,
    delta,
    p_regular,
    p_regular_verbatim,
    rogers_ramanujan,
    run_all,
    run_check,
)
from divprod.cli import main
from divprod.divisors import sigma_rm_table, sigma_table
from divprod.products import (
    Factor,
    ProductSpec,
    SetDescriptor,
    WeightSpec,
    builtin_spec,
    coeffs_via_expansion,
    delta_spec,
    p_regular_spec,
    ramanujan_spec,
    rogers_ramanujan_spec,
    square_quotient_spec,
    weight_table,
)
from divprod.report import first_mismatch
from divprod.sequences import lambert_cubic_by_divisors
from divprod.series import kronecker_mul

# The ids that "all" runs.
POSITIVE_IDS = sorted(r.id for r in CATALOG if r.expected == PASS)


# --- hand-checked instances ------------------------------------------------

# sigma, sigma_odd and sigma_even at 0..6 (slot 0 unused).
sigma = sigma_table(6)
sigma_odd = sigma_rm_table(6, 1, 2)
sigma_even = sigma_rm_table(6, 0, 2)


def test_partition_recurrence_hand_values():
    # n=5: 5*7 = 1*5 + 3*3 + 4*2 + 7*1 + 6*1 = 35
    assert 5 * 7 == sigma[1] * 5 + sigma[2] * 3 + sigma[3] * 2 + sigma[4] * 1 + sigma[5] * 1
    assert run_check("partition_recurrence", 5).passed


def test_jacobi_square_hand_values():
    # n=1: -1 = -(1+1)/2 with an empty sum
    # n=4:  4 = -(7+1)/2 + (sigma(3)+sigma_odd(3)) = -4 + 8
    assert -(sigma[4] + sigma_odd[4]) // 2 + (sigma[3] + sigma_odd[3]) == 4
    assert run_check("jacobi_square", 4).passed


def test_triangular_hand_values():
    # n=6: terms at T(k) in {0,1,3}: (4-8) + (6-0) + (4-0) = 6
    acc = (
        (sigma_odd[6] - sigma_even[6])
        + (sigma_odd[5] - sigma_even[5])
        + (sigma_odd[3] - sigma_even[3])
    )
    assert acc == 6
    assert run_check("triangular", 6).passed


def test_ramanujan_a_hand_values():
    # n=2: (2-1)*8 = 8*a(1)*(sigma_odd(1)-sigma_even(1))
    # n=3: 2*28 = 8*(a(2)*1 + a(1)*(1-2)) = 8*7
    a = [lambert_cubic_by_divisors(n) for n in range(4)]
    assert (2 - 1) * a[2] == 8 * a[1] * (sigma_odd[1] - sigma_even[1])
    assert (3 - 1) * a[3] == 8 * (a[2] * 1 + a[1] * (sigma_odd[2] - sigma_even[2]))
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
    # n=4: 4*theta(4) = 2*(h(3)*theta(1) + h(4)*theta(0)), where theta(1..4)
    # = 2, 0, 0, 2 and h(k) = sigma(k) - 5 sigma(k/2) + 4 sigma(k/4):
    # 8 = 2*(4*2 + (7-15+4)*1)
    assert 4 * 2 == 2 * (sigma[3] * 2 + (sigma[4] - 5 * sigma[2] + 4 * sigma[1]))
    assert run_check("square_eta_quotient", 4).passed


def test_delta_hand_values():
    # m=1, n=3: 3*1 = (1-0)*0 + (1-2)*1 + (4-0)*1
    # m=2, n=1: 1*2 = 2*(1-0)*1
    assert delta(1).check(3).passed
    assert delta(2).check(1).passed


# --- moderate full runs ----------------------------------------------------


@pytest.mark.parametrize("identity_id", POSITIVE_IDS)
def test_positive_checks_pass_at_moderate_order(identity_id):
    report = run_check(identity_id, 60)
    assert report.passed, report.to_dict()
    assert report.identity_id == identity_id
    assert report.order_checked == 60
    assert report.first_failure is None


def test_run_all_sorted_and_passing():
    reports = run_all(40)
    assert [r.identity_id for r in reports] == POSITIVE_IDS
    assert all(r.passed for r in reports)


def test_run_check_unknown_id():
    with pytest.raises(ValueError, match="^unknown identity 'fermat_last'; known: delta_1, "):
        run_check("fermat_last", 10)
    # A long id is named by its length, not echoed.
    with pytest.raises(ValueError, match="^unknown identity of 5000 characters; known: ") as exc:
        run_check("x" * 5000, 10)
    assert len(str(exc.value)) < 400


def test_delta_check_passes_for_odd_m():
    assert delta(3).check(50).passed


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
        left, right = relation.sides(t)
        assert right == schoolbook_right_side(relation, t)
        assert (left, right) == per_n_sides(relation, t)


def per_n_sides(relation, t):
    """Both sides for n = start..N, one n at a time: (n - shift) * lhs[n],
    and scale * sums[n] + diagonal[n] over one packed product's sums."""
    lhs, sums = t(relation.lhs), kronecker_mul(t(relation.kernel), t(relation.operand), t.order)
    diagonal = t(relation.diagonal) if relation.diagonal else [0] * (t.order + 1)
    span = range(relation.start, t.order + 1)
    return (
        [(n - relation.shift) * lhs[n] for n in span],
        [relation.scale * sums[n] + diagonal[n] for n in span],
    )


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
    assert not negative & set(POSITIVE_IDS)
    assert set(ALL_CHECKS) == negative | set(POSITIVE_IDS)


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
    ids = POSITIVE_IDS
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


# The first failure (n, lhs, rhs) of each expected failure.
_PINNED = {
    "jacobi_square_verbatim": (4, 4, 3),
    "ramanujan_a_verbatim": (2, 16, 0),
    "p_regular_verbatim_2": (1, 1, -1),
}


@pytest.mark.parametrize("order", [10, 500])
@pytest.mark.parametrize("identity_id, n, lhs, rhs", [(i, *f) for i, f in _PINNED.items()])
def test_expected_failures_stay_pinned(identity_id, n, lhs, rhs, order):
    report = run_check(identity_id, order)
    assert not report.passed
    assert (report.first_failure.n, report.first_failure.lhs, report.first_failure.rhs) == (
        n,
        lhs,
        rhs,
    )


# Every table maker that catalog binds, with the name of its order argument.
TABLE_MAKERS = {
    "sigma_table": "order",
    "sigma_rm_table": "order",
    "sparse_table": "order",
    "kronecker_mul": "order",
    "partition_counts": "order",
    "regular_partition_counts": "order",
    "rogers_ramanujan_sum_side": "order",
    "triangular_rep_counts": "order",
    "lambert_cubic_prefix": "order",
    "coeffs_via_expansion": "order",
    "coeffs_via_recurrence": "order",
    "lambert_cubic_by_divisors": "n",
}


def spy_reaches(monkeypatch, names=tuple(TABLE_MAKERS)):
    """A list the calls to the named table makers fill with (name, order)."""
    reaches = []
    for name in names:
        real = getattr(catalog, name)
        bind = inspect.signature(real).bind

        def spy(*args, real=real, bind=bind, name=name):
            reaches.append((name, bind(*args).arguments[TABLE_MAKERS[name]]))
            return real(*args)

        monkeypatch.setattr(catalog, name, spy)
    return reaches


def sum_orders(reaches):
    """The orders of the packed products that summed a relation's right side."""
    return [order for name, order in reaches if name == "kronecker_mul"]


@pytest.mark.parametrize("identity_id, n", [(i, f[0]) for i, f in _PINNED.items()])
def test_expected_failures_stop_before_summing_to_the_order(monkeypatch, identity_id, n):
    # No table of any kind is built past the prefix, the sums included.
    reaches = spy_reaches(monkeypatch)
    f = run_check(identity_id, 10000).first_failure
    assert (f.n, f.lhs, f.rhs) == _PINNED[identity_id]
    assert reaches and all(reach <= PREFIX for _, reach in reaches), reaches


def test_every_expected_failure_holds_one_comparison():
    # The condition under which its first mismatch to PREFIX is the one a
    # scan to the order finds.
    for record in (r for r in CATALOG if r.expected == FAIL):
        assert len(record.pins) + (record.relation is not None) == 1, record.id


def test_a_relation_past_the_prefix_is_summed_to_the_order(monkeypatch):
    reaches = spy_reaches(monkeypatch, ("kronecker_mul",))
    assert run_check("triangular", 300).passed
    assert run_check("triangular", 30).passed
    assert sum_orders(reaches) == [300, 30]
    # A relation that breaks only at n = N is scanned to N.
    relation = next(r.relation for r in CATALOG if r.id == "triangular")
    late = relation._replace(diagonal=lambda t: [0] * t.order + [1])
    assert first_mismatch(*late.sides(Tables(300)), late.start).n == 300


def test_an_expected_failure_past_the_prefix_is_checked_to_the_order(monkeypatch):
    # The triangular relation, broken at n = 100 only.
    relation = next(r.relation for r in CATALOG if r.id == "triangular")
    broken = relation._replace(diagonal=lambda t: [int(n == 100) for n in range(t.order + 1)])
    record = Identity("broken", expected=FAIL, relation=broken)
    reaches = spy_reaches(monkeypatch, ("kronecker_mul",))
    assert record.check(300).first_failure.n == 100
    assert sum_orders(reaches) == [PREFIX, 300]
    assert record.check(PREFIX).passed
    assert sum_orders(reaches) == [PREFIX, 300, PREFIX]


def test_jacobi_square_verbatim_holds_at_one():
    # the verbatim range k = 1..n-1 is empty at n = 1: -1 = -(1+1)/2
    assert run_check("jacobi_square_verbatim", 1).passed


@pytest.mark.parametrize(
    "family, bad, message",
    [(p_regular, 1, "p must be"), (p_regular_verbatim, 1, "p must be"),
     (rogers_ramanujan, 3, "which must be"), (delta, 0, "positive"),
     # a bool or a float is refused, not read as the int it equals
     (p_regular, 2.0, "p must be"), (p_regular, 2.5, "p must be"),
     (p_regular_verbatim, 2.5, "p must be"), (rogers_ramanujan, True, "which must be"),
     (rogers_ramanujan, 1.0, "which must be"), (delta, True, "positive"),
     (delta, 2.0, "positive"), (delta, 2.5, "positive")],
)
def test_families_reject_bad_parameters(family, bad, message):
    with pytest.raises(ValueError, match=message):
        family(bad)


# --- the divisor kernels ------------------------------------------------------

# The ordered (order, r, m) of each check's sieve calls at N = 50, with
# sigma_table(order) as (order, 0, 1): one sieve per residue class a kernel
# names, in the order of its terms, and none for the other tables.
_ODD_EVEN = [(50, 1, 2), (50, 0, 2)]
_SIEVE_CALLS = {
    "partition_recurrence": [(50, 0, 1)],
    "jacobi_square": [(50, 0, 1), (50, 1, 2)],
    "triangular": _ODD_EVEN,
    "ramanujan_a": _ODD_EVEN,
    **{f"p_regular_{p}": [(50, 0, 1)] for p in (2, 3, 5, 7)},
    "rogers_ramanujan_1": [(50, 1, 5), (50, 4, 5)],
    "rogers_ramanujan_2": [(50, 2, 5), (50, 3, 5)],
    "square_eta_quotient": [(50, 0, 1)],
    **{f"delta_{m}": [(50, 0, 1)] for m in (1, 2, 4, 6, 8, 10, 12)},
    "jacobi_square_verbatim": [(50, 0, 1), (50, 1, 2)],
    "ramanujan_a_verbatim": _ODD_EVEN,
    "p_regular_verbatim_2": [],
}


def spy_sieves(monkeypatch):
    """A list the sieve calls in catalog fill with (order, r, m)."""
    calls = []

    def rm_spy(order, r, m):
        calls.append((order, r, m))
        return sigma_rm_table(order, r, m)

    monkeypatch.setattr(catalog, "sigma_table", lambda order: rm_spy(order, 0, 1))
    monkeypatch.setattr(catalog, "sigma_rm_table", rm_spy)
    return calls


def test_each_check_makes_its_pinned_sieve_calls(monkeypatch):
    calls = spy_sieves(monkeypatch)
    made = {}
    for record in CATALOG:
        calls.clear()
        record.check(50)
        made[record.id] = list(calls)
    assert made == _SIEVE_CALLS


# prod (1-x^n)^(-1), whose recurrence kernel is sigma.
_PARTITIONS_SPEC = ProductSpec((Factor(SetDescriptor.all_naturals(), WeightSpec.linear(1)),))


def _derived(spec):
    """(kernel, scale, spec) with the kernel and scale read off the spec."""
    return (*_product_kernel(spec), spec)


# Each divisor kernel, scaled, is the recurrence kernel of a product spec:
# (kernel, scale, spec).
_KERNEL_PRODUCTS = {
    **{f"delta_{m}": _derived(delta_spec(m)) for m in (1, 2, 4, 6, 8, 10, 12)},
    "ramanujan": (catalog._odd_minus_even, 8, ramanujan_spec()),
    "square_quotient": _derived(square_quotient_spec()),
    "partitions": (catalog._sigma, 1, _PARTITIONS_SPEC),
    **{f"p_regular_{p}": _derived(p_regular_spec(p)) for p in (2, 3, 5, 7)},
    **{f"rogers_ramanujan_{w}": _derived(rogers_ramanujan_spec(w)) for w in (1, 2)},
    # The other built-ins, whose records state their kernels by hand.
    **{f"{name}_derived": _derived(builtin_spec(name))
       for name in ("gauss", "jacobi", "ramanujan")},
}


def assert_kernel_is_weight_table(kernel, scale, spec, order):
    table = Tables(order)(kernel)
    assert [scale * v for v in table] == list(weight_table(spec, order).numerators)


@pytest.mark.parametrize("kernel, scale, spec", _KERNEL_PRODUCTS.values(), ids=_KERNEL_PRODUCTS)
def test_divisor_kernel_is_its_products_weight_table(kernel, scale, spec):
    assert_kernel_is_weight_table(kernel, scale, spec, 300)


# --- the kernel read off a spec ------------------------------------------------


def disjoint(classes):
    """The classes of a union that share a member with an earlier class are
    dropped, by a scan of 1..lcm of the two moduli."""
    kept = []
    for r, m in classes:
        if not any(n % m == r and n % k == s
                   for s, k in kept for n in range(1, m * k // math.gcd(m, k) + 1)):
            kept.append((r, m))
    return kept


# Up to four residue classes r mod m, m in 1..12 and r = 0 allowed.
CLASSES = st.lists(
    st.integers(1, 12).flatmap(lambda m: st.tuples(st.integers(0, m - 1), st.just(m))),
    min_size=1, max_size=4, unique=True,
)


@st.composite
def class_specs(draw):
    """A product of linear weights, nonzero integer c in -4..4, over unions
    of disjoint residue classes."""
    factor = st.builds(
        lambda cs, c: Factor(SetDescriptor.residue_union(disjoint(cs)), WeightSpec.linear(c)),
        CLASSES, st.integers(-4, 4).filter(bool),
    )
    return ProductSpec(tuple(draw(st.lists(factor, min_size=1, max_size=4))))


@settings(max_examples=200, deadline=None)
@given(class_specs(), st.integers(0, 120))
def test_product_kernel_is_the_weight_table(spec, order):
    assert_kernel_is_weight_table(*_derived(spec), order)


@settings(max_examples=200, deadline=None)
@given(CLASSES)
def test_product_kernel_refuses_exactly_the_overlapping_classes(classes):
    spec = ProductSpec((Factor(SetDescriptor.residue_union(classes), WeightSpec.linear(1)),))
    if disjoint(classes) == classes:
        assert_kernel_is_weight_table(*_derived(spec), 60)
    else:
        with pytest.raises(ValueError, match="disjoint residue classes"):
            _product_kernel(spec)


@pytest.mark.parametrize("spec, index", [
    (ProductSpec((Factor(SetDescriptor.explicit([1, 3]), WeightSpec.linear(1)),)), 0),
    (ProductSpec((
        Factor(SetDescriptor.all_naturals(), WeightSpec.linear(1)),
        Factor(SetDescriptor.all_naturals(), WeightSpec.table({1: 1, 2: 4})),
    )), 1),
    (ProductSpec((Factor(SetDescriptor.multiples(2), WeightSpec.linear(Fraction(1, 2))),)), 0),
    # 6 is in both classes, and a union counts it once.
    (ProductSpec((Factor(SetDescriptor.residue_union([(0, 2), (0, 3)]), WeightSpec.linear(1)),)),
     0),
], ids=["explicit set", "table weight", "c = 1/2", "overlapping classes"])
def test_product_kernel_refuses_what_is_not_a_class_product(spec, index):
    with pytest.raises(ValueError, match=rf"factors\[{index}\]: not an integer c over disjoint"):
        _product_kernel(spec)
