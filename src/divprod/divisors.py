"""Divisors and divisor sums.

``divisors(n)`` lists the divisors of one value by trial division up to
sqrt(n); it is the independent side of the a(n) oracle.  Whole tables 1..N
of sigma, and of sigma over the divisors in one residue class, come from
the one harmonic sieve, ``divisor_sums`` (each d adds its weight to its
multiples), which is O(N log N) total.  The square and triangular
indicators are ``series.sparse_table`` over k*k and ``triangular(k)``.
Everything returns plain ints and takes them; a bool or a float raises
TypeError.
"""

from __future__ import annotations

from typing import Iterable

from divprod.series import _SHOWN_CHARS, check_order, exact_str, require_int


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


def _shown_int(name: str, v: int) -> str:
    """``name=v`` for an error message, or, past ``_SHOWN_CHARS`` digits,
    v named by its digit count rather than its digits."""
    if -(10**_SHOWN_CHARS) < v < 10**_SHOWN_CHARS:
        return f"{name}={v}"
    return f"{'negative ' if v < 0 else ''}{name} of {len(exact_str(abs(v)))} digits"


def non_canonical(r: int, m: int) -> str:
    """The error for a residue class r mod m with r outside 0 <= r < m."""
    shown = f"{_shown_int('r', r)}, {_shown_int('m', m)}"
    return f"non-canonical residue: need 0 <= r < m, got {shown}"


def _check_residue(order: int, r: int, m: int) -> None:
    """The order and r, m are ints, with r canonical mod m."""
    require_int(order, r, m)
    if m < 1:
        raise ValueError("modulus must be a positive integer")
    if not 0 <= r < m:
        raise ValueError(non_canonical(r, m))


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
    """The sum of the divisors d = r (mod m) of k, for 1 <= k <= order; slot 0
    is unused (0)."""
    _check_residue(order, r, m)
    ds = range(r or m, order + 1, m)
    return divisor_sums(order, zip(ds, ds))


def triangular(n: int) -> int:
    """The n-th triangular number n(n+1)/2."""
    require_int(n)
    if n < 0:
        raise ValueError("triangular is defined on nonnegative integers")
    return n * (n + 1) // 2

