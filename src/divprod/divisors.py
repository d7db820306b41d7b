"""Divisor sums, residue-restricted divisor sums, and the square/triangular
indicators.

Per-value queries use trial division up to sqrt(n); full prefixes 1..N come
from a harmonic-progression sieve (every d adds itself to its multiples),
which is O(N log N) total.  Everything returns plain ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from divprod.series import Rational


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError("divisors are defined for positive integers")
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def sigma(n: int) -> int:
    """Sum of the positive divisors of n >= 1."""
    return sum(divisors(n))


def sigma_ext(q: Rational) -> int:
    """Divisor sum extended to the rationals.

    sigma(q) for positive integers, 1 at q = 0, and 0 for every other
    rational (negative, or with a nontrivial denominator).
    """
    if q == 0:
        return 1
    if isinstance(q, Fraction):
        if q.denominator != 1:
            return 0
        q = q.numerator
    elif not isinstance(q, int):
        raise TypeError(f"expected an exact rational, got {type(q).__name__}")
    return 0 if q < 0 else sigma(q)


def _check_residue(r: int, m: int) -> None:
    if m < 1:
        raise ValueError("modulus must be a positive integer")
    if not 0 <= r < m:
        raise ValueError(f"non-canonical residue: need 0 <= r < m, got r={r}, m={m}")


def sigma_rm(n: int, r: int, m: int) -> int:
    """Sum of divisors d of n with d congruent to r mod m.

    Defined for n >= 1 only; the n = 0 case would sum over every positive
    integer and is rejected.
    """
    _check_residue(r, m)
    if n < 1:
        raise ValueError("sigma_rm is defined for positive integers")
    return sum(d for d in divisors(n) if d % m == r)


def sigma_odd(n: int) -> int:
    """Sum of the odd divisors of n."""
    return sigma_rm(n, 1, 2)


def sigma_even(n: int) -> int:
    """Sum of the even divisors of n."""
    return sigma_rm(n, 0, 2)


def sigma_table(order: int) -> list[int]:
    """sigma(k) for 1 <= k <= order as a list indexed by k; slot 0 is unused (0)."""
    return sigma_rm_table(order, 0, 1)


def sigma_rm_table(order: int, r: int, m: int) -> list[int]:
    """sigma_rm(k, r, m) for 1 <= k <= order; slot 0 is unused (0)."""
    _check_residue(r, m)
    table = [0] * (order + 1)
    first = r if r >= 1 else m
    for d in range(first, order + 1, m):
        for k in range(d, order + 1, d):
            table[k] += d
    return table


def square_indicator(n: int) -> int:
    """1 when n is a perfect square (0 included), else 0."""
    if n < 0:
        raise ValueError("square_indicator is defined on nonnegative integers")
    r = isqrt(n)
    return 1 if r * r == n else 0


def triangular(n: int) -> int:
    """The n-th triangular number n(n+1)/2."""
    if n < 0:
        raise ValueError("triangular is defined on nonnegative integers")
    return n * (n + 1) // 2


def triangular_indicator(n: int) -> int:
    """1 when n is a triangular number, else 0 (n is triangular iff 8n+1 is a square)."""
    if n < 0:
        raise ValueError("triangular_indicator is defined on nonnegative integers")
    return square_indicator(8 * n + 1)
