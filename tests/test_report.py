"""The first-mismatch scan shared by the catalog and the coefficient routes,
and the reports built from it."""

import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divprod.report import Failure, IdentityReport, first_mismatch


def test_no_mismatch():
    assert first_mismatch([1, 2, 3], [1, 2, 3]) is None
    assert first_mismatch([], []) is None


def test_mismatch_at_start_index():
    assert first_mismatch([9, 2], [8, 2], start=3) == Failure(3, 9, 8)


def test_mismatch_at_order():
    order = 6
    lhs = list(range(order + 1))
    rhs = lhs[:-1] + [-1]
    assert first_mismatch(lhs, rhs) == Failure(order, order, -1)


def test_int_and_equal_fraction_agree():
    assert first_mismatch([1, 2], [Fraction(1), Fraction(4, 2)]) is None
    assert first_mismatch([1], [Fraction(1, 2)]) == Failure(0, 1, Fraction(1, 2))


def test_stops_at_the_first_mismatch():
    # Of two mismatches the first is reported.  Both sides are sequences: a
    # generator side is refused, and unequal lengths are refused even where
    # the common prefix holds a mismatch.
    assert first_mismatch([0, 1, 2, 3], (0, 5, 2, 4), start=1) == Failure(2, 1, 5)
    with pytest.raises(TypeError):
        first_mismatch([0, 1, 2, 3], (v for v in (0, 5, 2, 4)), start=1)
    with pytest.raises(TypeError):
        first_mismatch(iter([0]), [0])
    with pytest.raises(ValueError):
        first_mismatch([0, 1, 2], [0, 5], start=1)


def test_unequal_lengths_raise():
    with pytest.raises(ValueError):
        first_mismatch([1, 2], [1])


def reference_first_mismatch(lhs, rhs, start=0):
    for n, (a, b) in enumerate(zip(lhs, rhs, strict=True), start):
        if a != b:
            return Failure(n, a, b)
    return None


_values = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


@settings(max_examples=300, deadline=None)
@given(
    lhs=st.lists(_values, max_size=12),
    changes=st.lists(st.tuples(st.integers(0, 11), _values), max_size=3),
    start=st.integers(-5, 1000),
    as_tuple=st.booleans(),
)
def test_matches_a_zip_scan(lhs, changes, start, as_tuple):
    # Int and Fraction mixes, equal values of either type, and mismatches at
    # any index, the first and the last included, from any start.
    rhs = list(lhs)
    for i, v in changes:
        if i < len(rhs):
            rhs[i] = v
    if as_tuple:
        rhs = tuple(rhs)
    got = first_mismatch(lhs, rhs, start)
    assert got == reference_first_mismatch(lhs, rhs, start)
    if got is not None:
        assert type(got.lhs) is type(lhs[got.n - start])
        assert type(got.rhs) is type(rhs[got.n - start])


@pytest.mark.parametrize("at", [0, 3, 6])
@pytest.mark.parametrize("start", [0, 2])
def test_mismatch_at_first_middle_and_last_index(at, start):
    lhs = [Fraction(k, 2) if k % 2 else k // 2 for k in range(7)]
    rhs = [*lhs[:at], Fraction(-1, 3), *lhs[at + 1 :]]
    assert first_mismatch(lhs, rhs, start) == Failure(at + start, lhs[at], Fraction(-1, 3))
    assert first_mismatch(lhs, lhs[:], start) is None
    assert first_mismatch([], (), start) is None


def test_report_without_a_failure_passed():
    report = IdentityReport("x", 5)
    assert report.passed
    assert report.to_dict() == {"identity": "x", "N": 5, "passed": True, "first_failure": None}


def test_report_with_a_failure_did_not_pass():
    report = IdentityReport("x", 5, Failure(2, 16, Fraction(1, 2)))
    assert not report.passed
    assert report.to_dict() == {
        "identity": "x",
        "N": 5,
        "passed": False,
        "first_failure": {"n": 2, "lhs": "16", "rhs": "1/2"},
    }


def test_report_prints_sides_past_the_digit_limit():
    big = 10 ** (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1) + 1
    report = IdentityReport("x", 5, Failure(2, big, Fraction(-1, big)))
    assert report.to_dict()["first_failure"] == {
        "n": 2, "lhs": str(Decimal(big)), "rhs": f"-1/{Decimal(big)}"}
