"""Integer sequence oracles computed by routes independent of the divisor-sum
recurrence: partition dynamic programs, a Lambert-series double sum, the
Rogers-Ramanujan sum sides, and theta-power convolutions.

These are the arbiters the identity catalog checks everything else against,
so none of them may go through the recurrence engine.  Each returns its terms
0..N as a ``TruncatedSeries``, the type of the coefficient routes, so an
oracle and the product expansion it is pinned to compare with ``==``.
"""

from __future__ import annotations

from itertools import count, repeat, takewhile
from math import comb
from operator import add, mul

from divprod.divisors import divisors, triangular
# binomial_factor: unused, but perfbench's --trace 1 patches it here and fails without it.
from divprod.series import TruncatedSeries, binomial_factor  # noqa: F401


def lambert_cubic_by_divisors(n: int) -> int:
    """Cubic Lambert coefficient by its divisor-sum formula:
    1 at n = 0, otherwise sum of (n/d)^3 over the odd divisors d of n."""
    if n < 0:
        raise ValueError("defined on nonnegative integers")
    if n == 0:
        return 1
    return sum((n // d) ** 3 for d in divisors(n) if d % 2 == 1)


def lambert_cubic_prefix(order: int) -> TruncatedSeries:
    """Coefficients of sum_{n>=1} n^3 x^n / (1 - x^{2n}) up to ``order``,
    expanded as the double sum over n^3 x^{n(2j+1)}; index 0 is set to 1
    to match the sequence convention."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    terms = [0] * (order + 1)
    terms[0] = 1
    for n in range(1, order + 1):
        cube = n ** 3
        e = n
        step = 2 * n
        while e <= order:
            terms[e] += cube
            e += step
    return TruncatedSeries(terms)


def partition_counts(order: int) -> TruncatedSeries:
    """p(0..order) by the part-by-part dynamic program."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    dp = [0] * (order + 1)
    dp[0] = 1
    for part in range(1, order + 1):
        for i in range(part, order + 1):
            dp[i] += dp[i - part]
    return TruncatedSeries(dp)


def regular_partition_counts(p: int, order: int) -> TruncatedSeries:
    """Partitions whose parts each repeat fewer than p times, for 0..order.

    Same dynamic program as partition_counts but each part may be used at
    most p-1 times, via the sliding-window recurrence
    new[i] = dp[i] + new[i-part] - dp[i-p*part].
    """
    if p < 2:
        raise ValueError("p must be an integer >= 2")
    if order < 0:
        raise ValueError("order must be nonnegative")
    dp = [0] * (order + 1)
    dp[0] = 1
    for part in range(1, order + 1):
        new = dp[:]
        window = p * part
        for i in range(part, order + 1):
            new[i] += new[i - part]
            if i >= window:
                new[i] -= dp[i - window]
        dp = new
    return TruncatedSeries(dp)


def rogers_ramanujan_sum_side(which: int, order: int) -> TruncatedSeries:
    """Coefficients of 1 + sum_{n>=1} x^{E(n)} / prod_{j=1..n} (1 - x^j)
    with E(n) = n^2 (which=1) or n(n+1) (which=2).

    Only the summands with E(n) <= order contribute, so the sum is finite.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if order < 0:
        raise ValueError("order must be nonnegative")

    def head(n: int) -> int:
        return n * n if which == 1 else n * (n + 1)

    # inv holds 1/prod_{j<=n}(1-x^j), kept only as far as the summand
    # x^{E(n)} * inv can reach, so each pass is over N+1-E(n) terms.
    total = [1] + [0] * order
    inv = total[:]
    n = 1
    while head(n) <= order:
        del inv[order + 1 - head(n):]
        for i in range(n, len(inv)):
            inv[i] += inv[i - n]
        total[head(n):] = map(add, total[head(n):], inv)
        n += 1
    return TruncatedSeries(total)


def triangular_rep_counts(m: int, order: int) -> TruncatedSeries:
    """Number of ordered m-tuples of triangular numbers summing to n, for
    0..order: the m-th power of the theta series sum_k x^{T(k)}.

    theta^m = sum_j C(m, j) (theta - 1)^j, and (theta - 1)^j starts at x^j,
    so j stops at min(m, order): the cost does not grow with m.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if order < 0:
        raise ValueError("order must be nonnegative")
    # (theta - 1)^j is (theta - 1)^(j-1) shifted to every triangular place
    # T(k) >= 1 and summed: one slice per place, padded with order zeros.
    places = list(takewhile(lambda t: t <= order, map(triangular, count(1))))
    power = [1] + [0] * order
    acc = power[:]
    for j in range(1, min(m, order) + 1):
        padded = [0] * order + power
        power = list(map(sum, zip(*(padded[order - t : 2 * order + 1 - t] for t in places))))
        acc = list(map(add, acc, map(mul, power, repeat(comb(m, j)))))
    return TruncatedSeries(acc)
