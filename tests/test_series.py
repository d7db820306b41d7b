"""Series kernel: exactness, truncation semantics, the binomial factors, and
the order check of every function that takes an order."""

import decimal
import random
import sys
import types
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divprod.divisors import divisor_sums
from divprod.products import coeffs_via_expansion, coeffs_via_recurrence, gauss_spec, weight_table
from divprod.sequences import (
    lambert_cubic_prefix,
    partition_counts,
    regular_partition_counts,
    rogers_ramanujan_sum_side,
    triangular_rep_counts,
)
import divprod.series as series
from divprod.series import (
    TruncatedSeries,
    apply_binomial_factor,
    apply_progression,
    binomial_factor,
    decimal_mul,
    exact_str,
    kronecker_mul,
    sparse_table,
)

S = TruncatedSeries


def padded(a, order):
    """The series of a's first order+1 coefficients, zero-filled to order."""
    return S((list(a) + [0] * order)[: order + 1])


def test_mul_telescoping():
    assert padded([1, -1], 3) * S([1, 1, 1, 1]) == S([1, 0, 0, 0])


def test_mul_binomial_square():
    assert padded([1, 1], 2) * padded([1, 1], 2) == S([1, 2, 1])


def test_mul_three_factors():
    # (1-x)(1-x^2)(1-x^3) = 1 - x - x^2 + x^3 + ... -> truncated at 3: [1,-1,-1,0]
    a = padded([1, -1], 3)
    b = padded([1, 0, -1], 3)
    c = S([1, 0, 0, -1])
    assert a * b * c == S([1, -1, -1, 0])


def test_mul_min_order():
    assert (S([1, 1, 1, 1, 1]) * S([1, 1])).order == 1


def test_binomial_factor_linear():
    assert binomial_factor(1, 1, 3) == S([1, -1, 0, 0])


def test_binomial_factor_negative_exponent():
    assert binomial_factor(2, -2, 6) == S([1, 0, 2, 0, 3, 0, 4])


def test_binomial_factor_square():
    assert binomial_factor(2, 2, 4) == S([1, 0, -2, 0, 1])


def test_binomial_factor_zero_exponent():
    assert binomial_factor(5, 0, 4) == padded([1], 4)


def test_immutability():
    a = S([1, 2])
    with pytest.raises(AttributeError):
        a.coeffs = (0,)


def test_constructor_takes_only_coeffs():
    assert S.zero(3) == S([0, 0, 0, 0])
    assert S(iter([Fraction(1, 2), 3])).coeffs == (Fraction(1, 2), 3)
    with pytest.raises(ValueError, match="x\\^0 coefficient"):
        S([])
    with pytest.raises(TypeError):
        S([1], order=3)


def test_container_protocol():
    a = S([1, -2, Fraction(1, 3)])
    assert (a.order, len(a), list(a)) == (2, 3, [1, -2, Fraction(1, 3)])
    assert (a[0], a[-1]) == (1, Fraction(1, 3))
    assert a == S((1, -2, Fraction(1, 3))) and hash(a) == hash(S([1, -2, Fraction(1, 3)]))
    assert a != S([1, -2]) and a != (1, -2, Fraction(1, 3))
    assert repr(a) == "TruncatedSeries([1, -2, Fraction(1, 3)])"
    with pytest.raises(IndexError):
        a[3]


def test_mul_takes_only_series():
    # The scalar branch and __rmul__ are gone: a number is not a series.
    a = S([1, 2])
    with pytest.raises(TypeError):
        a * 2
    with pytest.raises(TypeError):
        2 * a
    with pytest.raises(TypeError):
        a * [1, 2]


def test_inverse_round_trip_over_pinned_binomials():
    # (1-x^n)^e * (1-x^n)^-e == 1 across the whole required range.
    for n in range(1, 11):
        for e in range(-8, 9):
            prod = binomial_factor(n, e, 100) * binomial_factor(n, -e, 100)
            assert prod == padded([1], 100), (n, e)


small_ints = st.integers(min_value=-9, max_value=9)
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=8)
int_series = st.lists(small_ints, min_size=1, max_size=12).map(S)


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
    assert all(type(c) is int for c in a * b)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=-5, max_value=5),
    int_series,
)
def test_inplace_binomial_matches_series_product(n, e, a):
    coeffs = list(a.coeffs)
    apply_binomial_factor(coeffs, n, e)
    assert S(coeffs) == a * binomial_factor(n, e, a.order)


def per_cell(coeffs, n, e):
    """The reference pass: c[i] -= c[i-n] downward per unit of e >= 0, and
    c[i] += c[i-n] upward per unit of e < 0, one cell at a time."""
    top = len(coeffs) - 1
    for _ in range(abs(e)):
        if e >= 0:
            for i in range(top, n - 1, -1):
                coeffs[i] -= coeffs[i - n]
        else:
            for i in range(n, top + 1):
                coeffs[i] += coeffs[i - n]


# Lengths with n*n == len (1, 9, 16, 25, 36), n*n == len + 1 (3, 8, 15, 24,
# 35) and neither, so that each inverse pass meets both slice forms and the
# boundary between them; n runs past the length too.
@pytest.mark.parametrize("size", [0, 1, 2, 3, 5, 8, 9, 15, 16, 24, 25, 35, 36, 50])
def test_binomial_pass_matches_the_per_cell_pass(size):
    rng = random.Random(size)
    ints = [rng.randint(-9, 9) for _ in range(size)]
    fractions = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(size)]
    for coeffs in (ints, fractions):
        for n in range(1, size + 3):
            for e in range(-4, 5):
                got, expected = coeffs[:], coeffs[:]
                apply_binomial_factor(got, n, e)
                per_cell(expected, n, e)
                assert got == expected, (size, n, e)
                assert list(map(type, got)) == list(map(type, expected))


class SliceCounter(list):
    """A list that counts the slice assignments made to it, and refuses any
    other item assignment."""

    def __setitem__(self, key, value):
        assert isinstance(key, slice), key
        self.slices += 1
        super().__setitem__(key, value)


def test_binomial_pass_makes_at_most_sqrt_size_slice_assignments_per_unit():
    for size in range(1, 401):
        bound = isqrt(size - 1) + 2  # ceil(sqrt(size)) + 1
        coeffs = SliceCounter(range(size))
        for n in range(1, size + 3):
            for e in (1, -1):  # each undoes the other
                coeffs.slices = 0
                apply_binomial_factor(coeffs, n, e)
                assert coeffs.slices <= bound, (size, n, e, coeffs.slices)
        assert coeffs == list(range(size))


# --- Euler's progression product against per-degree passes ----------------


def per_degree(coeffs, b, m, e):
    """coeffs times prod_j (1 - x^(b+jm))^e, one apply_binomial_factor per degree."""
    out = list(coeffs)
    for n in range(b, len(out), m):
        apply_binomial_factor(out, n, e)
    return out


@pytest.mark.parametrize("m", range(1, 8))
def test_progression_matches_per_degree_passes_at_every_order(m):
    # Each order truncates the same random list, so its reference is a prefix
    # of the reference at the top order.
    for b in range(1, m + 1):
        for e in (1, -1):
            rng = random.Random(f"{b} {m} {e}")
            coeffs = [rng.randint(-9, 9) for _ in range(301)]
            expected = per_degree(coeffs, b, m, e)
            for order in range(301):
                got = coeffs[: order + 1]
                apply_progression(got, b, m, e)
                assert got == expected[: order + 1], (b, m, e, order)


@pytest.mark.parametrize("m", range(1, 8))
def test_progression_matches_per_degree_passes_at_order_2000(m):
    # The first and the last start below the step: the longest and the
    # shortest run of Euler's sum.
    for b in sorted({1, m}):
        for e in (1, -1):
            rng = random.Random(f"{b} {m} {e} 2000")
            coeffs = [rng.randint(-9, 9) for _ in range(2001)]
            got = coeffs[:]
            apply_progression(got, b, m, e)
            assert got == per_degree(coeffs, b, m, e), (b, m, e)


@pytest.mark.parametrize("m", range(1, 13))
def test_progression_on_and_off_the_multiples_of_m_matches_per_degree_passes(m):
    # The series 1 and a random list that is zero off the multiples of m take
    # the sums in x^m.  One nonzero off the multiples, at index 1 or at the
    # last index off them, sends the same list back to the sums in x.  Each
    # order truncates the lists with no nonzero off them or one at index 1,
    # so their reference is a prefix of the one at the top order; the list
    # with one at the last index is rebuilt at each order.
    top = 120
    for b in range(1, 2 * m + 3):
        for e in (1, -1):
            rng = random.Random(f"lattice {b} {m} {e}")
            lattice = [rng.randint(-9, 9) if i % m == 0 else 0 for i in range(top + 1)]
            inputs = [[1] + [0] * top, lattice]
            if m > 1:
                inputs.append(lattice[:1] + [rng.choice((-1, 1)) * rng.randint(1, 9)] + lattice[2:])
            references = [(coeffs, per_degree(coeffs, b, m, e)) for coeffs in inputs]
            for order in range(top + 1):
                for coeffs, expected in references:
                    got = coeffs[: order + 1]
                    apply_progression(got, b, m, e)
                    assert got == expected[: order + 1], (b, m, e, order, coeffs is lattice)
                if m > 1 and order:
                    last = lattice[: order + 1]
                    last[order if order % m else order - 1] = rng.choice((-1, 1)) * rng.randint(1, 9)
                    got = last[:]
                    apply_progression(got, b, m, e)
                    assert got == per_degree(last, b, m, e), (b, m, e, order, "last")


def test_progression_on_one_is_euler_product():
    # prod (1 - x^n)^-1 counts partitions; prod (1 - x^n) is the pentagonal series.
    base = [1] + [0] * 12
    apply_progression(base, 1, 1, -1)
    assert base == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    base = [1] + [0] * 12
    apply_progression(base, 1, 1, 1)
    assert base == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


@pytest.mark.parametrize(
    "b, m, e, needle",
    [(0, 2, 1, "b and step m"), (1, 0, -1, "b and step m"), (1, 2, 2, "1 or -1"), (1, 2, 0, "1 or -1")],
)
def test_progression_rejects_bad_arguments(b, m, e, needle):
    with pytest.raises(ValueError, match=needle):
        apply_progression([1, 0, 0], b, m, e)


# --- __mul__ against the direct double sum ---------------------------------


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
@example(([1, 0, 2], [0, 3, -4]))  # zeros in both operands, equal nonzero counts
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
    return list((padded(a, order) * padded(b, order)).coeffs)


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


def slot_width(a, b, order):
    """The slot width in bytes that kronecker_mul takes for a and b: slots
    of up to 8 bytes are packed and read back as 8-byte words."""
    a, b = a[: order + 1], b[: order + 1]
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    return (bound.bit_length() + 8) // 8


def assert_matches_schoolbook(a, b, order, width):
    assert slot_width(a, b, order) == width
    assert kronecker_mul(a, b, order) == schoolbook(a, b, order)
    assert kronecker_mul(a, a, order) == schoolbook(a, a, order)  # b is a: a square


@pytest.mark.parametrize("width", range(1, 10))
def test_kronecker_mul_at_each_slot_width(width):
    half = 1 << (8 * width - 1)
    # Every power of two below half a slot and its neighbours, of both signs:
    # their bytes reach every plane of the slot and both signs of its top byte.
    values = [s * ((1 << k) + d) for k in range(8 * width - 1) for d in (-1, 0, 1) for s in (1, -1)]
    for one in ([1], [-1]):
        assert_matches_schoolbook(values, one, len(values) - 1, width)
        assert kronecker_mul(values, one, len(values) - 1) == [one[0] * c for c in values]
    # One-term operands on both sides of the width boundary.
    for c in (half - 1, -(half - 1)):
        assert_matches_schoolbook([c], [1], 0, width)
        assert_matches_schoolbook([c], [-1], 3, width)
    assert_matches_schoolbook([half], [1], 0, width + 1)
    assert_matches_schoolbook([-half], [-1], 2, width + 1)
    # Equal signs put the middle coefficient of the product at its bound:
    # just inside half a slot, and just past it.
    for n in (2, 5):
        inside = isqrt((half - 1) // n)
        assert_matches_schoolbook([inside] * n, [-inside] * n, 2 * n - 2, width)
        assert_matches_schoolbook([-inside] * n, [-inside] * n, 2 * n, width)
        past = isqrt(half // n) + 1
        assert_matches_schoolbook([past] * n, [-past] * n, 2 * n - 2, width + 1)


@pytest.mark.parametrize("width", range(1, 10))
def test_kronecker_mul_truncates_at_each_slot_width(width):
    rng = random.Random(width)
    for n in (1, 3, 17):
        top = isqrt(((1 << (8 * width - 1)) - 1) // n)
        a = [rng.randint(-top, top) for _ in range(n)]
        b = [rng.randint(-top, top) for _ in range(n)]
        a[0], b[-1] = top, -top  # the width reached, whatever the draw
        assert slot_width(a, b, n - 1) == width
        negative = [-abs(c) or -1 for c in a]
        pairs = ((a, b), (a, a), (negative, negative), (negative, a[:1]))
        for order in (0, n // 2, n - 1, 2 * n + 3):  # below both lengths, and past them
            for x, y in pairs:
                assert kronecker_mul(x, y, order) == schoolbook(x, y, order), (x, y, order)


def test_kronecker_mul_near_the_word_limit():
    # |c| up to 2**63 - 1 fits a signed 8-byte word, with 8-byte slots; -2**63
    # takes 9 and the per-slot path.
    for c in (2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1):
        for a in ([c], [-c], [c, -c, 0, c], [-c, -c]):
            assert_matches_schoolbook(a, [1], len(a) + 1, 8)
            assert_matches_schoolbook(a, [-1], 0, 8)
    assert_matches_schoolbook([-(2**63)], [1], 1, 9)
    c = 2**31 - 1  # 2 * c * c is just below 2**63
    assert_matches_schoolbook([c, -c], [-c, c], 3, 8)


def test_kronecker_rejects_negative_arguments():
    with pytest.raises(ValueError, match="order"):
        kronecker_mul([1], [1], -1)


class _BigEndianWords:
    """``array("q", ...)`` as a big-endian host holds it: ints are stored
    with their most significant byte first, bytes are kept as given, and
    ``tolist`` reads each word most significant byte first."""

    def __init__(self, typecode, values):
        assert typecode == "q"
        if isinstance(values, (bytes, bytearray)):
            self.raw = bytes(values)
        else:
            self.raw = b"".join(v.to_bytes(8, "big", signed=True) for v in values)

    def byteswap(self):
        self.raw = b"".join(self.raw[i : i + 8][::-1] for i in range(0, len(self.raw), 8))

    def tobytes(self):
        return self.raw

    def tolist(self):
        return [int.from_bytes(self.raw[i : i + 8], "big", signed=True)
                for i in range(0, len(self.raw), 8)]


@pytest.mark.parametrize("width", range(1, 9))
def test_kronecker_mul_on_a_big_endian_host(monkeypatch, width):
    # The byteswap in series._words turns a big-endian host's words into the
    # little-endian bytes that the slots are cut from, and back.
    monkeypatch.setattr(series, "array", _BigEndianWords)
    monkeypatch.setattr(series, "_BIG_ENDIAN", True)
    rng = random.Random(width)
    for n in (1, 2, 5, 17):
        top = isqrt(((1 << (8 * width - 1)) - 1) // n)
        a = [rng.randint(-top, top) for _ in range(n)]
        b = [rng.randint(-top, top) for _ in range(n)]
        a[0], b[-1] = top, -top  # the width reached, whatever the draw
        assert slot_width(a, b, n - 1) == width
        for order in (0, n - 1, 2 * n):
            assert kronecker_mul(a, b, order) == schoolbook(a, b, order), (a, b, order)
            assert kronecker_mul(a, a, order) == schoolbook(a, a, order), (a, order)


# --- the recurrence's packed product against kronecker_mul ------------------

wide_ints = st.integers(min_value=-(2**4096), max_value=2**4096)
wide_lists = st.one_of(
    st.lists(st.just(0), min_size=1, max_size=8),
    st.lists(wide_ints, min_size=1, max_size=6),
    st.lists(st.one_of(small_ints, wide_ints), min_size=1, max_size=24),
)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)
# 2 * WIDTH_EDGE**2, the bound of [M, M] * [M, M] and its x^1 coefficient,
# is 2**127 - 2**65 + 2: just below kronecker_mul's half slot, 2**127.
WIDTH_EDGE = 2**63 - 1


def decimal_mul_leaves_no_state(a, b, start, stop):
    """decimal_mul(a, b, start, stop), asserting that the thread's decimal
    context and the int-to-str digit limit are what they were before the
    call."""
    context, limit = decimal.getcontext(), DIGIT_LIMIT()
    before = (context.prec, context.Emax, context.Emin, context.rounding,
              dict(context.traps), dict(context.flags))
    out = decimal_mul(a, b, start, stop)
    assert decimal.getcontext() is context
    assert (context.prec, context.Emax, context.Emin, context.rounding,
            dict(context.traps), dict(context.flags)) == before
    assert DIGIT_LIMIT() == limit
    return out


@settings(max_examples=200, deadline=None)
@given(wide_lists, wide_lists, st.integers(min_value=0, max_value=40))
@example([0, 0], [1, -2, 3], 4)  # a zero operand
@example([1, -1], [1, 1], 3)  # borrows between slots
@example([3, 0, -7], [2**4096, -(2**4096)], 9)  # order past both lengths
@example([-3, -1, -4], [-1, -5, -9, -2], 6)  # all negative
@example([7], [-9], 3)  # one slot each
@example([WIDTH_EDGE] * 2, [WIDTH_EDGE] * 2, 2)  # x^1 equals the width bound
# Past the switch to libmpdec's transform: 1199 slots of 35 digits, and 3
# slots of 12947 digits.
@example([2**50 - 3, -(2**49)] * 300, [-(2**50) + 1, 7] * 300, 1300)
@example([2**22000 + 1, -5], [-(2**21000), 3], 4)
def test_decimal_mul_matches_kronecker_mul(a, b, order):
    assert decimal_mul_leaves_no_state(a, b, 0, order + 1) == kronecker_mul(a, b, order)
    assert decimal_mul_leaves_no_state(a, a, 0, order + 1) == kronecker_mul(a, a, order)


@settings(max_examples=200, deadline=None)
@given(wide_lists, wide_lists, st.integers(min_value=0, max_value=50),
       st.integers(min_value=0, max_value=50))
@example([1, -1], [1, 1], 2, 2)  # start == stop
@example([1, 2, 3], [4, 5], 4, 9)  # start past the last product slot (3)
@example([1, 2, 3], [4, 5], 3, 9)  # start at the last product slot
@example([-3, -1, -4], [-1, -5, -9, -2], 2, 5)  # the slots a block keeps
@example([1, 2], [3, 4], 5, 1)  # start > stop
def test_decimal_mul_reads_back_slots_start_to_stop(a, b, start, stop):
    full = kronecker_mul(a, b, max(start, stop))
    assert decimal_mul_leaves_no_state(a, b, start, stop) == full[start:stop]


def test_decimal_mul_edge_cases():
    assert decimal_mul([0, 0, 0], [0], 0, 3) == [0, 0, 0]
    assert decimal_mul([5], [0, 0], 0, 1) == [0]
    assert decimal_mul([2], [3], 0, 5) == [6, 0, 0, 0, 0]
    assert decimal_mul([1, 2, 3], [1, 2, 3], 0, 1) == [1]
    with pytest.raises(ValueError, match="order"):
        decimal_mul([1], [1], 0, -1)


def contexts_built(monkeypatch, a, b, start, stop):
    """decimal_mul(a, b, start, stop) and the number of decimal contexts it
    built: one on libmpdec's side of the switch, none on the int side."""
    built = []

    def spy(*args, **kwargs):
        built.append(args or kwargs)
        return decimal.Context(*args, **kwargs)

    monkeypatch.setattr(series, "Context", spy)
    return decimal_mul_leaves_no_state(a, b, start, stop), len(built)


def test_decimal_mul_switches_to_libmpdec_past_its_transform_threshold(monkeypatch):
    assert series._TRANSFORM_DIGITS == 1024 * 19
    # bound = 2**49 * 1 * 512 = 2**58, of 59 bits: 19 digits a slot, so 1024
    # slots are exactly the threshold's 19456 digits, and the ints multiply.
    a, b = [1, -1] * 256, [2**49, -(2**49) + 1] * 256 + [3]
    out, built = contexts_built(monkeypatch, a, b, 0, 1024)
    assert (out, built) == (kronecker_mul(a, b, 1023), 0)
    # bound = 2**59, of 60 bits: 20 digits a slot, one more, and libmpdec
    # multiplies.
    b[0] = 2**50
    out, built = contexts_built(monkeypatch, a, b, 0, 1024)
    assert (out, built) == (kronecker_mul(a, b, 1023), 1)


def _signed(rng, bits, size):
    return [rng.randint(-(2**bits), 2**bits) for _ in range(size)]


_rng = random.Random(32)
# (a, b, contexts built) on each side of the switch: signed slots of 6 bytes
# or 17 digits, and slots wider than 8 bytes.
SIDES = [
    (_signed(_rng, 20, 20), _signed(_rng, 20, 30), 0),
    (_signed(_rng, 20, 600), _signed(_rng, 20, 700), 1),
    (_signed(_rng, 300, 12), _signed(_rng, 200, 9), 0),
    (_signed(_rng, 20000, 3), _signed(_rng, 15000, 4), 1),
]


@pytest.mark.parametrize("a, b, built", SIDES, ids=["int-narrow", "decimal-narrow", "int-wide",
                                                    "decimal-wide"])
def test_decimal_mul_matches_kronecker_mul_on_both_sides_of_the_switch(monkeypatch, a, b, built):
    top = len(a) + len(b) - 1
    full = kronecker_mul(a, b, top + 2)
    assert contexts_built(monkeypatch, a, b, 0, top + 3) == (full, built)
    # A window, as a block asks for: slots len(a) .. top-1, and one that
    # stops short of the product's top slot.
    assert contexts_built(monkeypatch, a, b, len(a), top) == (full[len(a) : top], built)
    assert contexts_built(monkeypatch, a, b, 3, top - 2) == (full[3 : top - 2], built)
    # From the top slot on, only zeros; nothing is multiplied.
    assert contexts_built(monkeypatch, a, b, top, top + 3) == ([0, 0, 0], 0)
    assert contexts_built(monkeypatch, a, b, top + 1, top + 2) == ([0], 0)


@pytest.mark.skipif(not DIGIT_LIMIT(), reason="no int-to-str digit limit")
def test_decimal_mul_slot_wider_than_the_digit_limit():
    # Each slot is wider than str(int) may write or int(str) may read.
    big = 10 ** (DIGIT_LIMIT() + 7) + 3
    a, b = [big, -1, 2], [-big, 5]
    out = decimal_mul_leaves_no_state(a, b, 0, 6)
    assert out == kronecker_mul(a, b, 5)
    assert out[0] == -(big * big)
    # Slots 2..3 alone are read back the same way; slots past the product are 0.
    assert decimal_mul_leaves_no_state(a, b, 2, 4) == out[2:4]
    assert decimal_mul_leaves_no_state(a, b, 4, 6) == [0, 0]


def slot_width_cases(width):
    """Operand pairs whose slot on decimal_mul's int side is ``width`` bytes,
    h = 2**(8*width - 1) being half a slot: coefficients at +-(h - 1), the
    slot's extremes, times a single +-1, and n-term operands whose bound
    n * t**2 nears h, one pair all negative."""
    h = 1 << (8 * width - 1)
    rng = random.Random(width)
    cases = [([h - 1, -(h - 1), 0, h - 1, -(h - 1)], [1]),
             ([-1], [-(h - 1), h - 1, -(h - 1)]),
             ([-(h - 1)] * 3, [-1])]
    for n in (2, 5, 17):
        t = isqrt((h - 1) // n)
        a = [rng.randint(-t, t) for _ in range(n)]
        b = [rng.randint(-t, t) for _ in range(n)]
        a[0], b[-1] = t, -t  # the width reached, whatever the draw
        cases += [(a, b), ([-rng.randint(1, t) for _ in range(n - 1)] + [-t], [-t] * n)]
    return cases


@pytest.mark.parametrize("width", range(1, 25))
def test_decimal_mul_int_side_at_every_slot_width(monkeypatch, width):
    # Slots of 1-8 bytes go by byte planes of 8-byte words, and those of
    # 9-16 and 17-24 bytes, two and three words wide, by a call per
    # coefficient.
    for a, b in slot_width_cases(width):
        assert slot_width(a, b, len(a) + len(b)) == width, (a, b)
        top = len(a) + len(b) - 1  # the product's slots are 0 .. top-1
        full = schoolbook(a, b, top + 3)
        # Windows inside the product, windows whose stop is past it, and
        # windows with start >= top, which are all zeros.
        windows = [(0, top), (1, top - 1), (len(a), top), (0, top + 3), (top - 1, top + 2),
                   (top, top), (top, top + 2), (top + 1, top + 4)]
        for start, stop in windows:
            assert contexts_built(monkeypatch, a, b, start, stop) == (full[start:stop], 0), (a, b, start)


class _BigEndianSignedOrUnsignedWords(_BigEndianWords):
    """``array("q", ...)`` or ``array("Q", ...)`` as a big-endian host holds
    it."""

    def __init__(self, typecode, values):
        assert typecode in ("q", "Q")
        signed = typecode == "q"
        if isinstance(values, (bytes, bytearray)):
            self.raw = bytes(values)
        else:
            self.raw = b"".join(v.to_bytes(8, "big", signed=signed) for v in values)
        self.signed = signed

    def tolist(self):
        return [int.from_bytes(self.raw[i : i + 8], "big", signed=self.signed)
                for i in range(0, len(self.raw), 8)]


@pytest.mark.parametrize("width", range(1, 9))
def test_decimal_mul_byte_planes_on_a_big_endian_host(monkeypatch, width):
    # The byteswaps in decimal_mul's helpers turn a big-endian host's words
    # into the little-endian bytes that the slots are cut from, and back.
    monkeypatch.setattr(series, "array", _BigEndianSignedOrUnsignedWords)
    monkeypatch.setattr(series, "sys", types.SimpleNamespace(byteorder="big"))
    for a, b in slot_width_cases(width):
        top = len(a) + len(b) - 1
        assert decimal_mul(a, b, 0, top + 2) == schoolbook(a, b, top + 1), (a, b)
        assert decimal_mul(a, b, len(a), top) == schoolbook(a, b, top)[len(a) : top], (a, b)


def test_exact_str_prints_what_str_prints():
    for v in (0, -7, 10**50, Fraction(-3, 4), Fraction(6, 1), True):
        assert exact_str(v) == str(v)


@pytest.mark.skipif(not DIGIT_LIMIT(), reason="no int-to-str digit limit")
def test_exact_str_prints_past_the_digit_limit():
    big = -(10 ** (DIGIT_LIMIT() + 1)) - 1
    with pytest.raises(ValueError):
        str(big)
    assert exact_str(big) == str(Decimal(big)) == "-1" + "0" * DIGIT_LIMIT() + "1"
    assert exact_str(Fraction(big, 7)) == f"{Decimal(big)}/7"
    assert exact_str(Fraction(-3, -big)) == f"-3/{Decimal(-big)}"
    assert exact_str(Fraction(big)) == str(Decimal(big))
    assert DIGIT_LIMIT() > 0


@pytest.mark.parametrize(
    "fn",
    [
        lambda order: binomial_factor(1, 1, order),
        lambda order: kronecker_mul([1, 2], [1, 2], order),
        lambda order: decimal_mul([1, 2], [1, 2], 0, order),
        lambda order: decimal_mul([1, 2], [1, 2], order, 3),
        lambda order: divisor_sums(order, [(1, 1)]),
        lambert_cubic_prefix,
        partition_counts,
        lambda order: regular_partition_counts(2, order),
        lambda order: rogers_ramanujan_sum_side(1, order),
        lambda order: triangular_rep_counts(2, order),
        lambda order: sparse_table(order, lambda k: k * k),
        lambda order: weight_table(gauss_spec(), order),
        lambda order: coeffs_via_recurrence(gauss_spec(), order),
        lambda order: coeffs_via_expansion(gauss_spec(), order),
    ],
    ids=["binomial_factor", "kronecker_mul", "decimal_mul", "decimal_mul_start", "divisor_sums",
         "lambert_cubic_prefix", "partition_counts", "regular_partition_counts",
         "rogers_ramanujan_sum_side", "triangular_rep_counts", "sparse_table", "weight_table",
         "coeffs_via_recurrence", "coeffs_via_expansion"],
)
def test_every_order_argument_is_a_nonnegative_int(fn):
    for order, error, message in [
        (True, TypeError, "expected an int, got bool"),
        (2.0, TypeError, "expected an int, got float"),
        (-1, ValueError, "order must be nonnegative"),
    ]:
        with pytest.raises(error, match=message):
            fn(order)
