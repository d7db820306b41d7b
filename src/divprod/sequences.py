"""Integer sequence oracles computed by routes independent of the divisor-sum
recurrence: partition dynamic programs, a Lambert-series double sum, the
Rogers-Ramanujan sum sides, and theta-power convolutions.

These are the arbiters the identity catalog checks everything else against,
so none of them may go through the recurrence engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from divprod.divisors import divisors, triangular
from divprod.series import TruncatedSeries, binomial_factor, sparse_table


@dataclass(frozen=True)
class SequencePrefix:
    """A named prefix of an integer sequence, terms indexed 0..N."""

    name: str
    terms: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    def __getitem__(self, n: int) -> int:
        return self.terms[n]

    def __len__(self) -> int:
        return len(self.terms)


def _int_terms(coeffs) -> tuple[int, ...]:
    out = []
    for c in coeffs:
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError(f"non-integer term {c} in an integer sequence")
            c = c.numerator
        out.append(c)
    return tuple(out)


def lambert_cubic_by_divisors(n: int) -> int:
    """Cubic Lambert coefficient by its divisor-sum formula:
    1 at n = 0, otherwise sum of (n/d)^3 over the odd divisors d of n."""
    if n < 0:
        raise ValueError("defined on nonnegative integers")
    if n == 0:
        return 1
    return sum((n // d) ** 3 for d in divisors(n) if d % 2 == 1)


def lambert_cubic_prefix(order: int) -> SequencePrefix:
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
    return SequencePrefix("lambert_cubic", tuple(terms))


def partition_counts(order: int) -> SequencePrefix:
    """p(0..order) by the part-by-part dynamic program."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    dp = [0] * (order + 1)
    dp[0] = 1
    for part in range(1, order + 1):
        for i in range(part, order + 1):
            dp[i] += dp[i - part]
    return SequencePrefix("partition", tuple(dp))


def regular_partition_counts(p: int, order: int) -> SequencePrefix:
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
    return SequencePrefix(f"q_regular({p})", tuple(dp))


def rogers_ramanujan_sum_side(which: int, order: int) -> SequencePrefix:
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

    total = TruncatedSeries.one(order)
    inv_pochhammer = TruncatedSeries.one(order)
    n = 1
    while head(n) <= order:
        inv_pochhammer = inv_pochhammer * binomial_factor(n, -1, order)
        total = total + inv_pochhammer.shift(head(n))
        n += 1
    return SequencePrefix(f"rr{which}", _int_terms(total.coeffs))


def triangular_rep_counts(m: int, order: int) -> SequencePrefix:
    """Number of ordered m-tuples of triangular numbers summing to n, for
    0..order: the m-th power of the theta series sum_k x^{T(k)}.

    theta^m = sum_j C(m, j) (theta - 1)^j, and (theta - 1)^j starts at x^j,
    so j stops at min(m, order): the cost does not grow with m.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if order < 0:
        raise ValueError("order must be nonnegative")
    theta_minus_one = TruncatedSeries([0] + sparse_table(order, triangular)[1:])
    power = TruncatedSeries.one(order)
    acc = [1] + [0] * order
    for j in range(1, min(m, order) + 1):
        power = power * theta_minus_one
        c = comb(m, j)
        for n in range(j, order + 1):
            acc[n] += c * power[n]
    return SequencePrefix(f"delta({m})", tuple(acc))
