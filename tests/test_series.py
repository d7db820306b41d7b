"""Series kernel: exactness, truncation semantics, and the binomial factors."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divprod.series import (
    TruncatedSeries,
    apply_binomial_factor,
    binomial_factor,
    convolve,
    kronecker_mul,
    kronecker_pow,
)

S = TruncatedSeries


def test_add_cancellation():
    assert S([1, 1]) + S([1, -1]) == S([2, 0])


def test_add_identity():
    a = S([3, Fraction(1, 2), -7])
    assert S.zero(2) + a == a


def test_add_coefficientwise():
    assert S([1, -2, 0, 0, 2]) + S([0, 2, 0, 0, -2]) == S([1, 0, 0, 0, 0])


def test_add_truncates_to_min_order():
    out = S([1, 2, 3, 4]) + S([1, 1])
    assert out.order == 1
    assert out == S([2, 3])


def test_mul_telescoping():
    assert S([1, -1], order=3) * S([1, 1, 1, 1]) == S([1, 0, 0, 0])


def test_mul_binomial_square():
    assert S([1, 1], order=2) * S([1, 1], order=2) == S([1, 2, 1])


def test_mul_three_factors():
    # (1-x)(1-x^2)(1-x^3) = 1 - x - x^2 + x^3 + ... -> truncated at 3: [1,-1,-1,0]
    a = S([1, -1], order=3)
    b = S([1, 0, -1], order=3)
    c = S([1, 0, 0, -1])
    assert a * b * c == S([1, -1, -1, 0])


def test_mul_min_order():
    assert (S([1, 1, 1, 1, 1]) * S([1, 1])).order == 1


def test_scalar_mul():
    assert 2 * S([1, -3]) == S([2, -6])
    assert S([1, 2]) * Fraction(1, 2) == S([Fraction(1, 2), 1])


def test_inverse_geometric():
    assert S([1, -1], order=4).inverse() == S([1, 1, 1, 1, 1])


def test_inverse_of_one():
    assert S.one(3).inverse() == S.one(3)


def test_inverse_fibonacci():
    assert S([1, -1, -1], order=5).inverse() == S([1, 1, 2, 3, 5, 8])


def test_inverse_requires_nonzero_constant():
    with pytest.raises(ValueError, match="not invertible"):
        S([0, 1, 2]).inverse()


def test_binomial_factor_linear():
    assert binomial_factor(1, 1, 3) == S([1, -1, 0, 0])


def test_binomial_factor_negative_exponent():
    assert binomial_factor(2, -2, 6) == S([1, 0, 2, 0, 3, 0, 4])


def test_binomial_factor_square():
    assert binomial_factor(2, 2, 4) == S([1, 0, -2, 0, 1])


def test_binomial_factor_zero_exponent():
    assert binomial_factor(5, 0, 4) == S.one(4)


def test_shift_basic():
    assert S([1, 2, 3]).shift(1) == S([0, 1, 2])


def test_shift_zero_is_identity():
    a = S([4, 5, 6])
    assert a.shift(0) == a


def test_shift_drops_top_coefficients():
    assert S([1, 8, 28]).shift(1) == S([0, 1, 8])
    assert S([1, 8, 28]).shift(5) == S([0, 0, 0])


def test_truncate():
    assert S([1, 2, 3, 4]).truncate(1) == S([1, 2])
    with pytest.raises(ValueError):
        S([1, 2]).truncate(5)


def test_immutability():
    a = S([1, 2])
    with pytest.raises(AttributeError):
        a.coeffs = (0,)


def test_inverse_round_trip_over_pinned_binomials():
    # (1-x^n)^e * (1-x^n)^-e == 1 across the whole required range.
    for n in range(1, 11):
        for e in range(-8, 9):
            prod = binomial_factor(n, e, 100) * binomial_factor(n, -e, 100)
            assert prod == S.one(100), (n, e)


small_ints = st.integers(min_value=-9, max_value=9)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)
int_series = st.lists(small_ints, min_size=1, max_size=12).map(S)


@given(st.lists(rationals, min_size=1, max_size=10))
def test_inverse_is_right_inverse(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = Fraction(1, 3)
    a = S(coeffs)
    assert a * a.inverse() == S.one(a.order)


@given(int_series, int_series)
def test_mul_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=60)
@given(int_series, int_series, int_series)
def test_mul_associative_up_to_truncation(a, b, c):
    n = min(a.order, b.order, c.order)
    assert (a * b) * c == a * (b * c)
    assert ((a * b) * c).order == n


@given(int_series, int_series)
def test_integer_products_stay_integral(a, b):
    assert (a * b).is_integral()


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=-5, max_value=5),
    int_series,
)
def test_inplace_binomial_matches_series_product(n, e, a):
    coeffs = list(a.coeffs)
    apply_binomial_factor(coeffs, n, e)
    assert S(coeffs) == a * binomial_factor(n, e, a.order)


# --- the schoolbook convolution and __mul__ against direct sums -------------


def test_convolve_matches_the_direct_sum():
    operand = [5, -1, 4, 0, 7, 2, 2, -3, 1, 6]
    kernels = (
        [0, 2, 0, 0, -1, 0, 0, 0, 0, 3],
        [Fraction(1, 2), 0, Fraction(-3, 4), 0, 0, 1, 0, 0, 0, Fraction(5, 3)],
        [0] * 10,
    )
    for kernel in kernels:
        for start in (0, 2, 9):
            direct = [
                sum(kernel[k] * operand[n - k] for k in range(n + 1))
                for n in range(start, 10)
            ]
            assert list(convolve(kernel, operand, start, 9)) == direct
    # Online: b = 1/(1 - x - x^2), each b[n] written after its sum arrives.
    b = [1] + [0] * 9
    for n, s in enumerate(convolve([0, 1, 1], b, 1, 9), 1):
        b[n] = s
    assert b == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    # The same with a Fraction kernel: b = 1/(1 - x/2), so b[n] = 2^-n.
    b = [1] + [0] * 5
    for n, s in enumerate(convolve([0, Fraction(1, 2)], b, 1, 5), 1):
        b[n] = s
    assert b == [Fraction(1, 2**n) for n in range(6)]


def direct_product(a, b):
    """a*b truncated to the shorter operand, as the plain double sum."""
    n = min(len(a), len(b)) - 1
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


big_ints = st.integers(min_value=-(2**256), max_value=2**256)
exact_lists = st.one_of(
    st.lists(st.just(0), min_size=1, max_size=8),
    st.lists(small_ints, min_size=1, max_size=16),
    st.lists(st.one_of(small_ints, rationals, big_ints), min_size=1, max_size=16),
)


# Unrelated pairs, and pairs whose second operand permutes the first, so
# that both operands have the same number of nonzero terms.
operand_pairs = st.one_of(
    st.tuples(exact_lists, exact_lists),
    exact_lists.flatmap(lambda a: st.tuples(st.just(a), st.permutations(a))),
)


@settings(max_examples=300)
@given(operand_pairs)
@example(([0, 0, 0], [1, -2, 3, 4]))  # an all-zero operand
@example(([1, 0, 2], [0, 3, -4]))  # equal nonzero counts: self is the kernel
@example(([1, 2, 0, 0, 0], [3, 0, 0, 4]))  # unequal orders, equal counts below both
@example(([Fraction(1, 2), 0, -3], [0, Fraction(2, 3), 5, 0, 1]))
def test_mul_matches_the_direct_double_sum(pair):
    a, b = pair
    product = (S(a) * S(b)).coeffs
    assert list(product) == direct_product(a, b)
    if all(type(c) is int for c in a + b):
        assert all(type(c) is int for c in product)


# --- packed product: differential tests against the schoolbook __mul__ -----


def schoolbook(a, b, order):
    """Coefficients 0..order of a*b by TruncatedSeries.__mul__."""
    return list((S(a[: order + 1], order) * S(b[: order + 1], order)).coeffs)


signed_lists = st.one_of(
    st.lists(st.just(0), min_size=1, max_size=8),
    st.lists(big_ints, min_size=1, max_size=1),
    st.lists(st.one_of(small_ints, big_ints), min_size=1, max_size=24),
)


@settings(max_examples=300)
@given(signed_lists, signed_lists, st.integers(min_value=0, max_value=30))
def test_kronecker_mul_matches_schoolbook(a, b, order):
    assert kronecker_mul(a, b, order) == schoolbook(a, b, order)
    assert kronecker_mul(a, a, order) == schoolbook(a, a, order)


@settings(max_examples=100)
@given(signed_lists, signed_lists)
def test_kronecker_mul_order_below_both_lengths(a, b):
    order = min(len(a), len(b)) // 2
    assert kronecker_mul(a, b, order) == schoolbook(a, b, order)


def test_kronecker_mul_cancelling_signs():
    # (1 - x)(1 + x) = 1 - x^2: every borrow between slots must resolve.
    assert kronecker_mul([1, -1], [1, 1], 3) == [1, 0, -1, 0]
    assert kronecker_mul([-(2**256)], [2**256], 0) == [-(2**512)]
    assert kronecker_mul([0, 0], [5], 2) == [0, 0, 0]


@settings(max_examples=100)
@given(signed_lists, st.integers(min_value=0, max_value=9), st.integers(0, 20))
def test_kronecker_pow_matches_repeated_schoolbook(a, e, order):
    expected = [1] + [0] * order
    for _ in range(e):
        expected = schoolbook(expected, a, order)
    assert kronecker_pow(a, e, order) == expected


def test_kronecker_rejects_negative_arguments():
    with pytest.raises(ValueError, match="order"):
        kronecker_mul([1], [1], -1)
    with pytest.raises(ValueError, match="exponent"):
        kronecker_pow([1], -1, 3)
