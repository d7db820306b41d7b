"""Divisor functions against brute-force enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divprod.catalog import Tables, _divisor_kernel
from divprod.divisors import divisor_sums, divisors, sigma_rm_table, sigma_table, triangular
from divprod.products import SetDescriptor
from divprod.series import sparse_table
from test_catalog import spy_sieves


def brute_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("n", list(range(1, 120)) + [997, 1024, 5040])
def test_divisors_matches_full_scan(n):
    assert divisors(n) == brute_divisors(n)


def test_sigma_of_six():
    assert sigma_table(6)[6] == 1 + 2 + 3 + 6 == 12


# The divisor functions compute on ints only: a float would come back as a
# float or a wrong 0, and a bool as its truth value.
@pytest.mark.parametrize(
    "call",
    [
        lambda: sigma_table(6.0),
        lambda: sigma_table(2.5),
        lambda: sigma_table(True),
        lambda: divisors(2.0),
        lambda: sigma_rm_table(Fraction(6), 1, 2),
        lambda: sigma_rm_table(6, 1.0, 2),
        lambda: sigma_rm_table(6, 1, True),
        lambda: sigma_rm_table(10, 1, 2.0),
        lambda: sigma_rm_table(10.0, 1, 2),
        lambda: triangular(2.5),
        lambda: triangular(True),
    ],
)
def test_per_value_functions_refuse_non_ints(call):
    with pytest.raises(TypeError, match="expected an int"):
        call()


def test_sigma_odd_even_of_six():
    assert sigma_rm_table(6, 1, 2)[6] == 1 + 3 == 4
    assert sigma_rm_table(6, 0, 2)[6] == 2 + 6 == 8


def test_sigma_rm_example():
    assert sigma_rm_table(6, 1, 5)[6] == 1 + 6 == 7


def test_sigma_rm_rejects_non_canonical_residue():
    with pytest.raises(ValueError, match="non-canonical residue"):
        sigma_rm_table(6, 5, 5)
    with pytest.raises(ValueError, match="non-canonical residue"):
        sigma_rm_table(6, -1, 2)


@pytest.mark.parametrize(
    "r, m, shown",
    [
        (-(10**99), 3, f"r=-1{'0' * 99}, m=3"),  # 100 digits: echoed
        (10**100, 3, "r of 101 digits, m=3"),
        (-(10**100), 3, "negative r of 101 digits, m=3"),
        (10**6000, 10**5000, "r of 6001 digits, m of 5001 digits"),  # past the int-to-str limit
    ],
    ids=["100-digits", "101-digits", "negative", "past-the-limit"],
)
def test_a_long_residue_is_named_by_its_digit_count(r, m, shown):
    message = f"non-canonical residue: need 0 <= r < m, got {shown}"
    for make in (lambda: sigma_rm_table(6, r, m), lambda: SetDescriptor.residue_union([(r, m)])):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


@given(st.integers(min_value=1, max_value=400))
def test_odd_plus_even_is_sigma(n):
    assert sigma_rm_table(n, 1, 2)[n] + sigma_rm_table(n, 0, 2)[n] == sigma_table(n)[n]


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=6))
def test_residue_classes_partition_sigma(n, m):
    assert sum(sigma_rm_table(n, r, m)[n] for r in range(m)) == sigma_table(n)[n]


def test_tables_match_per_value_functions():
    order = 200
    tab = sigma_table(order)
    odd = sigma_rm_table(order, 1, 2)
    even = sigma_rm_table(order, 0, 2)
    r25 = sigma_rm_table(order, 2, 5)
    for n in range(1, order + 1):
        ds = brute_divisors(n)
        assert tab[n] == sum(ds)
        assert odd[n] == sum(d for d in ds if d % 2 == 1)
        assert even[n] == sum(d for d in ds if d % 2 == 0)
        assert r25[n] == sum(d for d in ds if d % 5 == 2)


def scan_divisor_sums(order, pairs):
    """Per value k: the sum of w over the pairs (d, w) with d | k."""
    return [0] + [sum(w for d, w in pairs if k % d == 0) for k in range(1, order + 1)]


@pytest.mark.parametrize(
    "order, pairs",
    [
        (0, [(1, 5), (3, 2)]),  # nothing to sieve: only slot 0
        (12, []),  # no pairs
        (6, [(7, 1), (100, -3), (2, 1)]),  # d past the order reaches no k
        (10, [(2, 0), (3, 4), (1, 0)]),  # zero weights
        (15, [(3, 2), (5, -1), (3, 7), (3, -9)]),  # repeated d
        (30, [(d, d * d - 7) for d in range(1, 31)]),
    ],
)
def test_divisor_sums_matches_per_value_scan(order, pairs):
    assert divisor_sums(order, pairs) == scan_divisor_sums(order, pairs)
    assert divisor_sums(order, iter(pairs)) == scan_divisor_sums(order, pairs)


# The sieve refuses a negative order, as weight_table does, rather than return [].
@pytest.mark.parametrize(
    "call",
    [
        lambda: sigma_table(-3),
        lambda: sigma_rm_table(-1, 0, 2),
        lambda: divisor_sums(-1, [(1, 1)]),
        lambda: divisor_sums(-1, []),
    ],
)
def test_tables_refuse_a_negative_order(call):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        call()


# The square and triangular indicators are sparse tables over k*k and T(k).
def test_square_indicator():
    squares = {k * k for k in range(32)}
    assert sparse_table(999, lambda k: k * k) == [1 if n in squares else 0 for n in range(1000)]


def test_triangular_numbers():
    assert triangular(0) == 0
    assert triangular(3) == 6
    tris = {k * (k + 1) // 2 for k in range(50)}
    assert sparse_table(999, triangular) == [1 if n in tris else 0 for n in range(1000)]


# --- the catalog's divisor kernels, sum of a * sigma_{r,m}(k/d) -------------


def brute_kernel(terms, order):
    """Per value k: the sum over the terms (a, r, m, d) with d | k of a times
    the divisors of k/d that are r mod m."""
    return [
        sum(a * sum(e for e in brute_divisors(k // d) if e % m == r)
            for a, r, m, d in terms if k % d == 0)
        for k in range(order + 1)
    ]


_term = st.tuples(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=12).flatmap(
        lambda m: st.tuples(st.integers(min_value=0, max_value=m - 1), st.just(m))
    ),
    st.integers(min_value=1, max_value=6),
).map(lambda t: (t[0], *t[1], t[2]))


@settings(max_examples=100, deadline=None)
@given(st.lists(_term, min_size=1, max_size=4), st.sampled_from([0, 1, 60]))
def test_divisor_kernel_matches_brute_force(terms, order):
    assert _divisor_kernel(*terms)(Tables(order)) == brute_kernel(terms, order)


@pytest.mark.parametrize(
    "order, terms",
    [
        (5, [(2, 0, 1, 6), (1, 1, 2, 1)]),  # d past the order reaches no k
        (0, [(3, 0, 1, 4)]),  # only slot 0
        (60, [(1, 1, 3, 1), (-2, 1, 3, 2), (3, 1, 3, 5), (1, 0, 1, 3)]),  # (1, 3) three times
    ],
)
def test_divisor_kernel_sieves_each_residue_class_once(monkeypatch, order, terms):
    calls = spy_sieves(monkeypatch)
    assert _divisor_kernel(*terms)(Tables(order)) == brute_kernel(terms, order)
    assert calls == [(order, r, m) for r, m in dict.fromkeys((r, m) for _, r, m, _ in terms)]
