"""Sequence oracles against independent brute-force enumeration.

The enumerators here are deliberately naive (recursive multiset counting,
nested tuple loops) so the dynamic programs and series expansions are checked
against something with no shared machinery.  The last test compares each
oracle, by ``==``, with the product expansion the catalog pins it to.
"""

from functools import partial
from math import comb

import pytest

from divprod.divisors import triangular, triangular_indicator
from divprod.products import (
    Factor,
    ProductSpec,
    SetDescriptor,
    WeightSpec,
    coeffs_via_expansion,
    delta_spec,
    p_regular_spec,
    rogers_ramanujan_spec,
)
from divprod.sequences import (
    lambert_cubic_by_divisors,
    lambert_cubic_prefix,
    partition_counts,
    regular_partition_counts,
    rogers_ramanujan_sum_side,
    triangular_rep_counts,
)
from divprod.series import TruncatedSeries, binomial_factor, sparse_table


def count_partitions(n, parts, max_uses=None):
    """Count multisets drawn from `parts` summing to n, each part used at
    most `max_uses` times (None = unbounded)."""

    def rec(remaining, idx):
        if remaining == 0:
            return 1
        if idx == len(parts):
            return 0
        p = parts[idx]
        total = 0
        uses = 0
        while uses * p <= remaining and (max_uses is None or uses <= max_uses):
            total += rec(remaining - uses * p, idx + 1)
            uses += 1
        return total

    return rec(n, 0)


def count_triangular_tuples(m, n):
    """Ordered m-tuples of triangular numbers summing to n."""
    tris = [triangular(k) for k in range(n + 2) if triangular(k) <= n]

    def rec(slots, remaining):
        if slots == 0:
            return 1 if remaining == 0 else 0
        return sum(rec(slots - 1, remaining - t) for t in tris if t <= remaining)

    return rec(m, n)


def test_lambert_cubic_by_divisors_values():
    assert lambert_cubic_by_divisors(0) == 1
    assert lambert_cubic_by_divisors(1) == 1
    assert lambert_cubic_by_divisors(2) == 8
    assert lambert_cubic_by_divisors(6) == 6 ** 3 + 2 ** 3 == 224


def test_lambert_cubic_prefix_values():
    pre = lambert_cubic_prefix(4)
    assert pre[0] == 1
    assert pre[1] == 1
    assert pre[3] == 27 + 1 == 28
    assert pre[4] == 64


def test_lambert_routes_agree():
    pre = lambert_cubic_prefix(300)
    for n in range(1, 301):
        assert pre[n] == lambert_cubic_by_divisors(n)


def test_partition_spot_values():
    p = partition_counts(10)
    assert p[5] == 7
    assert p.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_partition_matches_enumeration():
    p = partition_counts(18)
    for n in range(19):
        assert p[n] == count_partitions(n, list(range(1, n + 1)))


def test_partition_monotone():
    p = partition_counts(200)
    assert all(p[n] >= p[n - 1] for n in range(1, 201))


def test_regular_partition_spot_values():
    assert regular_partition_counts(2, 5)[5] == 3  # 5, 4+1, 3+2
    assert regular_partition_counts(3, 4)[4] == 4  # 4, 3+1, 2+2, 2+1+1
    assert regular_partition_counts(2, 5).coeffs == (1, 1, 1, 2, 2, 3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_regular_partition_matches_enumeration(p):
    q = regular_partition_counts(p, 16)
    for n in range(17):
        assert q[n] == count_partitions(n, list(range(1, n + 1)), max_uses=p - 1)


def test_regular_partition_bounded_by_partition():
    p = partition_counts(150)
    for k in (2, 3, 7):
        q = regular_partition_counts(k, 150)
        assert all(q[n] <= p[n] for n in range(151))


def test_regular_partition_rejects_small_p():
    with pytest.raises(ValueError):
        regular_partition_counts(1, 10)


def test_rogers_ramanujan_spot_values():
    r1 = rogers_ramanujan_sum_side(1, 4)
    r2 = rogers_ramanujan_sum_side(2, 4)
    assert r1[0] == 1
    assert r1.coeffs == (1, 1, 1, 1, 2)
    assert r2[4] == 1


def test_rogers_ramanujan_matches_residue_partition_counts():
    # The sum sides count partitions into parts congruent to 1,4 (resp. 2,3) mod 5.
    r1 = rogers_ramanujan_sum_side(1, 24)
    r2 = rogers_ramanujan_sum_side(2, 24)
    for n in range(25):
        parts14 = [k for k in range(1, n + 1) if k % 5 in (1, 4)]
        parts23 = [k for k in range(1, n + 1) if k % 5 in (2, 3)]
        assert r1[n] == count_partitions(n, parts14)
        assert r2[n] == count_partitions(n, parts23)


def rogers_ramanujan_by_series(which, order):
    """The sum side by TruncatedSeries products: each 1/(1-x^n) is a
    schoolbook __mul__ by binomial_factor(n, -1)."""
    total = inv = TruncatedSeries.one(order)
    n = 1
    while (head := n * n if which == 1 else n * (n + 1)) <= order:
        inv = inv * binomial_factor(n, -1, order)
        total = total + inv.shift(head)
        n += 1
    return total.coeffs


@pytest.mark.parametrize("which", [1, 2])
def test_rogers_ramanujan_matches_series_products(which):
    for order in range(81):
        assert rogers_ramanujan_sum_side(which, order).coeffs == rogers_ramanujan_by_series(
            which, order
        )


def test_rogers_ramanujan_rejects_bad_selector():
    with pytest.raises(ValueError):
        rogers_ramanujan_sum_side(3, 10)


def test_delta_one_is_triangular_indicator():
    d1 = triangular_rep_counts(1, 120)
    assert all(d1[n] == triangular_indicator(n) for n in range(121))


def test_delta_two_spot_values():
    d2 = triangular_rep_counts(2, 5)
    assert d2[1] == 2  # (0,1), (1,0)
    assert d2[3] == 2  # (0,3), (3,0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_delta_matches_tuple_enumeration(m):
    dm = triangular_rep_counts(m, 50)
    for n in range(51):
        assert dm[n] == count_triangular_tuples(m, n)


@pytest.mark.parametrize("m", [1, 2, 5, 8, 13])
@pytest.mark.parametrize("order", [0, 1, 7, 40])
def test_delta_matches_repeated_theta_product(m, order):
    theta = TruncatedSeries(sparse_table(order, triangular))
    acc = TruncatedSeries.one(order)
    for _ in range(m):
        acc = acc * theta
    assert triangular_rep_counts(m, order).coeffs == acc.coeffs


def triangular_power_by_series(m, order):
    """sum_j C(m, j) (theta - 1)^j for j <= min(m, order), each power a
    schoolbook TruncatedSeries.__mul__."""
    theta_minus_one = TruncatedSeries([0] + sparse_table(order, triangular)[1:])
    power = acc = TruncatedSeries.one(order)
    for j in range(1, min(m, order) + 1):
        power = power * theta_minus_one
        acc = acc + power * comb(m, j)
    return acc.coeffs


@pytest.mark.parametrize("m", range(1, 16))
def test_delta_matches_binomial_series_form(m):
    # Orders below m cover the j <= min(m, order) bound.
    for order in range(81):
        assert triangular_rep_counts(m, order).coeffs == triangular_power_by_series(m, order)


@pytest.mark.parametrize("m", [10**6, 10**30])
def test_delta_closed_forms_at_huge_m(m):
    # n = 2 is two 1s; n = 3 is one 3 or three 1s.  The cost is bounded by
    # the order, so m = 10**30 runs as fast as m = 20.
    r = triangular_rep_counts(m, 20)
    assert r.coeffs[:4] == (1, m, comb(m, 2), m + comb(m, 3))


def test_delta_rejects_nonpositive_m():
    with pytest.raises(ValueError):
        triangular_rep_counts(0, 10)


_PINNED_PRODUCTS = [
    pytest.param(
        partition_counts,
        ProductSpec((Factor(SetDescriptor.all_naturals(), WeightSpec.linear(1)),)),
        id="partition",
    ),
    *(pytest.param(partial(regular_partition_counts, p), p_regular_spec(p), id=f"q_regular({p})")
      for p in (2, 3, 5, 7)),
    *(pytest.param(partial(rogers_ramanujan_sum_side, w), rogers_ramanujan_spec(w), id=f"rr{w}")
      for w in (1, 2)),
    *(pytest.param(partial(triangular_rep_counts, m), delta_spec(m), id=f"delta({m})")
      for m in (1, 2, 4, 6, 8, 10, 12)),
]


@pytest.mark.parametrize("order", [0, 1, 7, 60])
@pytest.mark.parametrize("oracle,spec", _PINNED_PRODUCTS)
def test_oracle_equals_its_product_expansion(oracle, spec, order):
    # An oracle returns the coefficient routes' type, so the sides compare
    # whole; the product's expansion is the route the catalog pins it to.
    assert oracle(order) == coeffs_via_expansion(spec, order)
