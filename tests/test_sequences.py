"""Sequence oracles against independent brute-force enumeration.

The enumerators here are deliberately naive (recursive multiset counting,
nested tuple loops) so the oracles' recurrences and series expansions are
checked against something with no shared machinery.  The partition oracles are
also checked against the part-by-part dynamic programs they replaced, kept
here as references, and the two recurrence oracles against their loops with
every sign and weight computed per term.  The last test checks that each
oracle returns a tuple of ints, and that it equals the coefficients of its
product's expansion, compared as ``tuple(...)`` of the route's result.
"""

from functools import partial
from itertools import count, takewhile
from math import comb
from operator import add, sub

import pytest

from divprod.divisors import triangular
from divprod.products import (
    Factor,
    ProductSpec,
    SetDescriptor,
    WeightSpec,
    coeffs_via_expansion,
    delta_spec,
    p_regular_spec,
    ramanujan_spec,
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


def partition_dp(order):
    """p(0..order) part by part: divide by (1 - x^part) for each part."""
    dp = [1] + [0] * order
    for part in range(1, order + 1):
        for i in range(part, order + 1):
            dp[i] += dp[i - part]
    return dp


def regular_partition_dp(p, order):
    """The p-regular counts part by part: multiply by (1 - x^{p*part})
    downward, then divide by (1 - x^part) upward."""
    dp = [1] + [0] * order
    for part in range(1, order + 1):
        window = p * part
        for i in range(order, window - 1, -1):
            dp[i] -= dp[i - window]
        for i in range(part, order + 1):
            dp[i] += dp[i - part]
    return dp


def pentagonal_partition_reference(order):
    """p(0..order) by the pentagonal recurrence as it is written, one sign
    call per term: the reference for the oracle, which splits its places by
    sign once and adds or subtracts in two loops."""
    terms = []
    for k in count(1):
        pair = (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
        places = [place for place in pair if place <= order]
        terms += [(place, sub if k % 2 else add) for place in places]
        if len(places) < 2:
            break
    p = [1]
    for n in range(1, order + 1):
        total = 0
        for place, sign in terms:
            if place > n:
                break
            total = sign(total, p[n - place])
        p.append(-total)
    return p


def miller_reference(m, order):
    """The m-th power of psi by Miller's recurrence, each weight (m + 1) t - n
    computed whole at every term: the reference for the oracle, which keeps
    (m + 1) t beside each place."""
    places = list(takewhile(lambda t: t <= order, map(triangular, count(1))))
    g = [1]
    for n in range(1, order + 1):
        acc = 0
        for t in places:
            if t > n:
                break
            acc += ((m + 1) * t - n) * g[n - t]
        q, r = divmod(acc, n)
        assert not r
        g.append(q)
    return g


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
    assert p == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_partition_matches_enumeration():
    p = partition_counts(18)
    for n in range(19):
        assert p[n] == count_partitions(n, list(range(1, n + 1)))


def test_partition_monotone():
    p = partition_counts(200)
    assert all(p[n] >= p[n - 1] for n in range(1, 201))


def test_partition_matches_the_dp_at_every_order():
    # A DP's terms do not depend on its order, so one table holds them all.
    reference = partition_dp(300)
    for order in range(301):
        assert list(partition_counts(order)) == reference[: order + 1]
    assert list(partition_counts(2000)) == partition_dp(2000)


def test_partition_matches_the_sign_call_loop_at_every_order():
    # The recurrence's terms do not depend on its order, so one table holds
    # them all; each order is still run on its own.
    reference = pentagonal_partition_reference(600)
    for order in range(601):
        assert list(partition_counts(order)) == reference[: order + 1]
    assert list(partition_counts(2000)) == pentagonal_partition_reference(2000)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 10**30])
def test_regular_partition_matches_the_dp_at_every_order(p):
    reference = regular_partition_dp(p, 300)
    for order in range(301):
        assert list(regular_partition_counts(p, order)) == reference[: order + 1]
    assert list(regular_partition_counts(p, 2000)) == regular_partition_dp(p, 2000)


def test_regular_partition_matches_the_dp_one_past_the_order():
    for order in range(301):
        p = max(2, order + 1)
        assert list(regular_partition_counts(p, order)) == regular_partition_dp(p, order)
    assert list(regular_partition_counts(2001, 2000)) == regular_partition_dp(2001, 2000)


def test_regular_partition_spot_values():
    assert regular_partition_counts(2, 5)[5] == 3  # 5, 4+1, 3+2
    assert regular_partition_counts(3, 4)[4] == 4  # 4, 3+1, 2+2, 2+1+1
    assert regular_partition_counts(2, 5) == (1, 1, 1, 2, 2, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_regular_partition_matches_enumeration(p):
    q = regular_partition_counts(p, 16)
    for n in range(17):
        assert q[n] == count_partitions(n, list(range(1, n + 1)), max_uses=p - 1)


@pytest.mark.parametrize("order", [0, 1, 2, 5, 12, 40])
def test_regular_partition_past_the_order_is_partition(order):
    # No part can repeat p > order times: the pentagonal series at x^p has
    # no term past its leading 1 up to x^order.
    p = partition_counts(order)
    for k in sorted({max(2, order + 1), order + 2, 2 * order + 3, 10**30}):
        assert regular_partition_counts(k, order) == p


def test_regular_partition_bounded_by_partition():
    p = partition_counts(150)
    for k in (2, 3, 7):
        q = regular_partition_counts(k, 150)
        assert all(q[n] <= p[n] for n in range(151))


def test_regular_partition_rejects_small_p():
    for p in (1, True, 2.0, 2.5):
        with pytest.raises(ValueError, match="p must be"):
            regular_partition_counts(p, 10)


def test_rogers_ramanujan_spot_values():
    r1 = rogers_ramanujan_sum_side(1, 4)
    r2 = rogers_ramanujan_sum_side(2, 4)
    assert r1[0] == 1
    assert r1 == (1, 1, 1, 1, 2)
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
    schoolbook __mul__ by binomial_factor(n, -1), and each term x^head/(...)
    is added into a plain list."""
    inv = TruncatedSeries([1] + [0] * order)
    total = list(inv.coeffs)
    n = 1
    while (head := n * n if which == 1 else n * (n + 1)) <= order:
        inv = inv * binomial_factor(n, -1, order)
        for i in range(head, order + 1):
            total[i] += inv[i - head]
        n += 1
    return tuple(total)


@pytest.mark.parametrize("which", [1, 2])
def test_rogers_ramanujan_matches_series_products(which):
    for order in range(81):
        assert rogers_ramanujan_sum_side(which, order) == rogers_ramanujan_by_series(which, order)


def test_rogers_ramanujan_rejects_bad_selector():
    for which in (3, True, 1.0):
        with pytest.raises(ValueError, match="which must be"):
            rogers_ramanujan_sum_side(which, 10)


def test_delta_one_is_triangular_indicator():
    d1 = triangular_rep_counts(1, 120)
    tris = {k * (k + 1) // 2 for k in range(16)}  # T(15) = 120
    assert all(d1[n] == (1 if n in tris else 0) for n in range(121))


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
    acc = TruncatedSeries([1] + [0] * order)
    for _ in range(m):
        acc = acc * theta
    assert triangular_rep_counts(m, order) == tuple(acc)


def triangular_power_by_series(m, order):
    """sum_j C(m, j) (theta - 1)^j for j <= min(m, order), each power a
    schoolbook TruncatedSeries.__mul__."""
    theta_minus_one = TruncatedSeries([0] + sparse_table(order, triangular)[1:])
    power = TruncatedSeries([1] + [0] * order)
    acc = list(power.coeffs)
    for j in range(1, min(m, order) + 1):
        power = power * theta_minus_one
        acc = [a + comb(m, j) * c for a, c in zip(acc, power)]
    return tuple(acc)


@pytest.mark.parametrize(
    "m, orders",
    [*(pytest.param(m, range(81), id=str(m)) for m in range(1, 16)),
     *(pytest.param(m, (0, 1, 40, 80), id=str(m)) for m in (100, 1000))],
)
def test_delta_matches_binomial_series_form(m, orders):
    # Orders below m cover the j <= min(m, order) bound of the reference.
    for order in orders:
        assert triangular_rep_counts(m, order) == triangular_power_by_series(m, order)


@pytest.mark.parametrize("m", range(1, 16))
def test_delta_matches_the_whole_weight_loop_at_every_order(m):
    reference = miller_reference(m, 600)
    for order in range(601):
        assert list(triangular_rep_counts(m, order)) == reference[: order + 1]


def test_delta_matches_the_whole_weight_loop_at_a_large_m():
    assert list(triangular_rep_counts(1000, 300)) == miller_reference(1000, 300)


@pytest.mark.parametrize("m", [10**6, 10**30])
def test_delta_closed_forms_at_huge_m(m):
    # n = 2 is two 1s; n = 3 is one 3 or three 1s.  The cost is bounded by
    # the order, so m = 10**30 runs as fast as m = 20.
    r = triangular_rep_counts(m, 20)
    assert r[:4] == (1, m, comb(m, 2), m + comb(m, 3))


def test_delta_rejects_nonpositive_m():
    # A bool or a float would run the recurrence on the value it equals, or
    # turn the coefficients into floats.
    for m in (0, True, 2.0, 2.5):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            triangular_rep_counts(m, 10)


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
      for m in (1, 2, 3, 4, 5, 6, 8, 10, 12)),
    pytest.param(lambert_cubic_prefix, ramanujan_spec(), id="lambert_cubic"),
]


@pytest.mark.parametrize("order", [0, 1, 7, 60])
@pytest.mark.parametrize("oracle,spec", _PINNED_PRODUCTS)
def test_oracle_equals_its_product_expansion(oracle, spec, order):
    # An oracle returns a plain tuple of order + 1 ints, and a route's result
    # becomes one by tuple(), so the sides compare whole.
    got = oracle(order)
    assert type(got) is tuple and len(got) == order + 1
    assert all(type(c) is int for c in got)
    product = tuple(coeffs_via_expansion(spec, order))
    if oracle is lambert_cubic_prefix:
        # The product has x in front: a(n) from n = 1, and 0 at x^0, where
        # the sequence puts a(0) = 1.
        product = (1,) + product[1:]
    assert got == product
