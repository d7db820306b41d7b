"""The first-mismatch scan shared by the catalog and the coefficient routes,
and the reports built from it."""

import sys
from decimal import Decimal
from fractions import Fraction

import pytest

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
    def rhs():
        yield 0
        yield 5
        raise AssertionError("evaluated past the first mismatch")

    assert first_mismatch([0, 1, 2, 3], rhs(), start=1) == Failure(2, 1, 5)


def test_unequal_lengths_raise():
    with pytest.raises(ValueError):
        first_mismatch([1, 2], [1])


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
