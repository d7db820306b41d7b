"""Divisor sums, residue-restricted divisor sums, and the square/triangular
indicators.

Per-value queries use trial division up to sqrt(n); full prefixes 1..N come
from the one harmonic sieve, ``divisor_sums`` (each d adds its weight to its
multiples), which is O(N log N) total.  Everything returns plain ints and
takes them; a bool or a float raises TypeError.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable

from divprod.series import check_order, require_int


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    require_int(n)
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


def _check_residue(n: int, r: int, m: int) -> None:
    """n (a value or an order) and r, m are ints, with r canonical mod m."""
    require_int(n, r, m)
    if m < 1:
        raise ValueError("modulus must be a positive integer")
    if not 0 <= r < m:
        raise ValueError(f"non-canonical residue: need 0 <= r < m, got r={r}, m={m}")


def sigma_rm(n: int, r: int, m: int) -> int:
    """Sum of divisors d of n with d congruent to r mod m.

    Defined for n >= 1 only; the n = 0 case would sum over every positive
    integer and is rejected.
    """
    _check_residue(n, r, m)
    if n < 1:
        raise ValueError("sigma_rm is defined for positive integers")
    return sum(d for d in divisors(n) if d % m == r)


def sigma_odd(n: int) -> int:
    """Sum of the odd divisors of n."""
    return sigma_rm(n, 1, 2)


def sigma_even(n: int) -> int:
    """Sum of the even divisors of n."""
    return sigma_rm(n, 0, 2)


def divisor_sums(order: int, weights: Iterable[tuple[int, int]]) -> list[int]:
    """Sum of w over the pairs (d >= 1, w) with d | k, for 1 <= k <= order; slot 0
    stays 0.  Each pair adds w to every multiple of d: cost sum of order/d."""
    check_order(order)
    table = [0] * (order + 1)
    for d, w in weights:
        if w:
            for k in range(d, order + 1, d):
                table[k] += w
    return table


def sigma_table(order: int) -> list[int]:
    """sigma(k) for 1 <= k <= order as a list indexed by k; slot 0 is unused (0)."""
    return sigma_rm_table(order, 0, 1)


def sigma_rm_table(order: int, r: int, m: int) -> list[int]:
    """sigma_rm(k, r, m) for 1 <= k <= order; slot 0 is unused (0)."""
    _check_residue(order, r, m)
    ds = range(r or m, order + 1, m)
    return divisor_sums(order, zip(ds, ds))


def square_indicator(n: int) -> int:
    """1 when n is a perfect square (0 included), else 0."""
    require_int(n)
    if n < 0:
        raise ValueError("square_indicator is defined on nonnegative integers")
    r = isqrt(n)
    return 1 if r * r == n else 0


def triangular(n: int) -> int:
    """The n-th triangular number n(n+1)/2."""
    require_int(n)
    if n < 0:
        raise ValueError("triangular is defined on nonnegative integers")
    return n * (n + 1) // 2


def triangular_indicator(n: int) -> int:
    """1 when n is a triangular number, else 0 (n is triangular iff 8n+1 is a square)."""
    require_int(n)
    if n < 0:
        raise ValueError("triangular_indicator is defined on nonnegative integers")
    return square_indicator(8 * n + 1)
