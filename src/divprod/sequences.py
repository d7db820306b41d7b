"""Integer sequence oracles computed by routes independent of the divisor-sum
recurrence: Euler's pentagonal theorem for the partition numbers, plain and
p-regular, a Lambert-series double sum, the Rogers-Ramanujan sum sides, and
Miller's power recurrence for the powers of the triangular theta series.

These are the arbiters the identity catalog checks everything else against,
so none of them may go through the recurrence engine.  Each returns its terms
0..N as a plain tuple of ints, so it equals ``tuple()`` of a coefficient
route's result for the product it is pinned to.
"""

from __future__ import annotations

from itertools import accumulate, count, takewhile
from operator import add, sub

from divprod.divisors import divisors, triangular
# binomial_factor: unused, but perfbench's --trace 1 patches it here and fails without it.
from divprod.series import binomial_factor, check_order  # noqa: F401


def lambert_cubic_by_divisors(n: int) -> int:
    """Cubic Lambert coefficient by its divisor-sum formula:
    1 at n = 0, otherwise sum of (n/d)^3 over the odd divisors d of n."""
    if n < 0:
        raise ValueError("defined on nonnegative integers")
    if n == 0:
        return 1
    return sum((n // d) ** 3 for d in divisors(n) if d % 2 == 1)


def lambert_cubic_prefix(order: int) -> tuple[int, ...]:
    """Coefficients of sum_{n>=1} n^3 x^n / (1 - x^{2n}) up to ``order``,
    expanded as the double sum over n^3 x^{n(2j+1)}; index 0 is set to 1
    to match the sequence convention."""
    check_order(order)
    terms = [0] * (order + 1)
    terms[0] = 1
    for n in range(1, order + 1):
        cube = n ** 3
        e = n
        step = 2 * n
        while e <= order:
            terms[e] += cube
            e += step
    return tuple(terms)


def _pentagonal(order: int):
    """(place, sign) of each term of prod_{n>=1} (1 - x^n) past its leading 1,
    up to x^order, the sign as ``add`` or ``sub``.  By Euler's pentagonal
    theorem the terms are (-1)^k at k(3k-1)/2 and k(3k+1)/2, k >= 1."""
    for k in count(1):
        for place in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if place > order:
                return
            yield place, sub if k % 2 else add


def partition_counts(order: int) -> tuple[int, ...]:
    """p(0..order) by Euler's pentagonal recurrence, O(order^1.5).  p is 1
    over prod (1 - x^n), so p(n) = -(sum of sign * p(n - place) over the
    terms placed at 1..n): p(n - place) is added where the term is negative
    and subtracted where it is positive."""
    check_order(order)
    added, subtracted = [], []
    for place, sign in _pentagonal(order):
        (added if sign is sub else subtracted).append(place)
    p = [1]
    for n in range(1, order + 1):
        total = 0
        for place in added:
            if place > n:
                break
            total += p[n - place]
        for place in subtracted:
            if place > n:
                break
            total -= p[n - place]
        p.append(total)
    return tuple(p)


def regular_partition_counts(p: int, order: int) -> tuple[int, ...]:
    """Partitions whose parts each repeat fewer than p times, for 0..order:
    prod (1 - x^{pn}) / (1 - x^n), the partition numbers times the pentagonal
    series at x^p, one shifted slice of p(n) per term."""
    if type(p) is not int or p < 2:
        raise ValueError("p must be an integer >= 2")
    parts = partition_counts(order)  # raises for a negative order
    c = list(parts)
    for place, sign in _pentagonal(order // p):
        at = p * place
        c[at:] = map(sign, c[at:], parts[: order + 1 - at])
    return tuple(c)


def rogers_ramanujan_sum_side(which: int, order: int) -> tuple[int, ...]:
    """Coefficients of 1 + sum_{n>=1} x^{E(n)} / prod_{j=1..n} (1 - x^j)
    with E(n) = n^2 (which=1) or n(n+1) (which=2).

    Only the summands with E(n) <= order contribute, so the sum is finite.
    """
    if type(which) is not int or which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    check_order(order)
    # inv holds 1/prod_{j<=n}(1-x^j), kept only as far as the summand
    # x^{E(n)} * inv can reach, so each pass is over N+1-E(n) terms.
    # Dividing by 1 - x^n is a running sum along each residue class mod n.
    total = [1] + [0] * order
    inv = total[:]
    n = 1
    while (e := n * (n + which - 1)) <= order:  # E(n)
        del inv[order + 1 - e:]
        for r in range(n):
            inv[r::n] = accumulate(inv[r::n])
        total[e:] = map(add, total[e:], inv)
        n += 1
    return tuple(total)


def triangular_rep_counts(m: int, order: int) -> tuple[int, ...]:
    """Number of ordered m-tuples of triangular numbers summing to n, for
    0..order: the m-th power g of psi = sum_{k>=0} x^{T(k)}.

    By J.C.P. Miller's recurrence for a power of a series with constant
    term 1 (Knuth, TAOCP vol. 2, 4.7), n g(n) = sum over the triangular
    places 1 <= t <= n of ((m + 1) t - n) g(n - t).  One pass over n walks
    psi's O(order^0.5) places, so the cost is O(order^1.5) for any m.
    """
    if type(m) is not int or m < 1:
        raise ValueError("m must be a positive integer")
    check_order(order)
    # Each place t with its weight (m + 1) t, computed once.
    places = [(t, (m + 1) * t)
              for t in takewhile(lambda t: t <= order, map(triangular, count(1)))]
    g = [1]
    for n in range(1, order + 1):
        acc = 0
        for t, weight in places:
            if t > n:
                break
            acc += (weight - n) * g[n - t]
        # g has integer coefficients, so the division is exact; a remainder is a defect.
        q, r = divmod(acc, n)
        if r:
            raise ArithmeticError(f"inexact division at n={n}")
        g.append(q)
    return tuple(g)
