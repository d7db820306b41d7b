"""The identity catalog, written as data.

Each identity is an ``Identity`` record: an id, whether it is expected to
pass, the smallest order it makes sense at, zero or more *pins* (two tables
that must agree on 0..N, such as an oracle against the product expansion)
and at most one *relation*, for start <= n <= N:

    (n - shift) * lhs[n] = scale * sum_k kernel[k] * operand[n - k] + diagonal[n]

The kernel is a sum of divisor-sum terms a * sigma_{r,m}(k/d), written as
data (``_divisor_kernel``), or a sparse series over the squares or the
triangular numbers.

A table is a function of the check's ``Tables``, built once per check however
many fields name it.  Tables look the oracles, the divisor sieves and the
coefficient routes up among this module's globals when the check runs, and
nothing is kept from one check to the next.  The oracles never go through the
recurrence engine.  A check reports the first index at which two sides
differ (``report.first_mismatch``, one pass over two lists).  A relation's
sides are lists built by ``map`` over slices of its tables, with no Python
step per coefficient; its right side is one packed product
(``series.kronecker_mul``) to N, and its left side is an oracle, a
sieve or a sparse table, none of which a packed product computes: neither
``kronecker_mul`` nor the recurrence's ``decimal_mul``, which this module
does not bind.

Three records are expected failures, kept to pin the index-bound and
orientation corrections the passing forms rely on: ``jacobi_square_verbatim``
(first failure n=4), ``ramanujan_a_verbatim`` (n=2) and
``p_regular_verbatim_2`` (n=1).  Each is checked to ``PREFIX`` first, so
none builds a table past it.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul
from typing import Callable, NamedTuple, Optional, Sequence

from divprod.divisors import sigma_rm_table, sigma_table, triangular
from divprod.products import (
    Factor,
    ProductSpec,
    WeightSpec,
    _shown,
    coeffs_via_expansion,
    coeffs_via_recurrence,
    delta_spec,
    p_regular_spec,
    ramanujan_spec,
    rogers_ramanujan_spec,
    square_quotient_spec,
)
from divprod.report import IdentityReport, first_mismatch
from divprod.sequences import (
    lambert_cubic_by_divisors,
    lambert_cubic_prefix,
    partition_counts,
    regular_partition_counts,
    rogers_ramanujan_sum_side,
    triangular_rep_counts,
)
from divprod.series import Rational, kronecker_mul, sparse_table

PASS = "pass"
FAIL = "fail"
# The order an expected failure is checked to first.
PREFIX = 64


class Tables:
    """The tables of one check at one order, each built on first use."""

    def __init__(self, order: int):
        self.order = order
        self._built: dict[Table, Sequence[Rational]] = {}

    def __call__(self, table: Table) -> Sequence[Rational]:
        if table not in self._built:
            self._built[table] = table(self)
        return self._built[table]


# Forward references as strings: typing caches subscripted aliases for the
# life of the process, and a class held there would keep this module alive
# after a re-import.
Table = Callable[["Tables"], Sequence[Rational]]


class Pin(NamedTuple):
    """Two tables that must agree on 0..N."""

    lhs: Table
    rhs: Table


class Relation(NamedTuple):
    """(n - shift) * lhs[n] = scale * sum_k kernel[k] * operand[n - k]
    + diagonal[n] for start <= n <= N; no diagonal means zero."""

    lhs: Table
    kernel: Table
    operand: Table
    scale: int = 1
    diagonal: Optional[Table] = None
    shift: int = 0
    start: int = 1

    def sides(self, t: Tables) -> tuple[list[Rational], list[Rational]]:
        """Both sides for n = start..N, as lists built by ``map`` over slices;
        the right side's sums are one packed product to N."""
        start, stop = self.start, t.order + 1
        weights = range(start - self.shift, stop - self.shift)  # n - shift
        left = list(map(mul, weights, t(self.lhs)[start:stop]))
        right = kronecker_mul(t(self.kernel), t(self.operand), t.order)[start:stop]
        if self.scale != 1:
            right = list(map(mul, repeat(self.scale), right))
        if self.diagonal:
            right = list(map(add, right, t(self.diagonal)[start:stop]))
        return left, right


class Identity(NamedTuple):
    """One catalog entry; ``check(order)`` runs its pins, then its relation.
    An expected failure, which holds one comparison, is checked to PREFIX
    first and to the order only if it passes there."""

    id: str
    expected: str = PASS
    min_order: int = 1
    pins: tuple[Pin, ...] = ()
    relation: Optional[Relation] = None

    def _comparisons(self, t: Tables):
        for pin in self.pins:
            yield t(pin.lhs), t(pin.rhs), 0
        if self.relation is not None:
            yield (*self.relation.sides(t), self.relation.start)

    def check(self, order: int) -> IdentityReport:
        if order < self.min_order:
            raise ValueError(f"{self.id}: order must be >= {self.min_order}")
        first = min(PREFIX, order) if self.expected == FAIL else order
        for reach in sorted({first, order}):
            for lhs, rhs, start in self._comparisons(Tables(reach)):
                miss = first_mismatch(lhs, rhs, start)
                if miss is not None:
                    return IdentityReport(self.id, order, miss)
        return IdentityReport(self.id, order)


# ---------------------------------------------------------------------------
# Tables and families
# ---------------------------------------------------------------------------


def _on_squares(coeff) -> Table:
    return lambda t: sparse_table(t.order, lambda k: k * k, coeff)


_squares = _on_squares(lambda k: 1)  # s(n)
_theta = _on_squares(lambda k: 2 if k else 1)  # 1 + 2 sum_{k>=1} x^{k^2}
_alternating_squares = _on_squares(lambda k: (-1) ** k)  # (-1)^n s(n)
_square_signs = _on_squares(lambda k: (-1) ** (k + 1) if k else 0)  # at k^2, k >= 1


def _triangulars(t):
    """t(n), the indicator of the triangular numbers."""
    return sparse_table(t.order, triangular)


def _expansion(spec: ProductSpec) -> Table:
    return lambda t: coeffs_via_expansion(spec, t.order).coeffs


def _divisor_kernel(*terms: tuple[int, int, int, int]) -> Table:
    """The table of the sum over ``terms`` (a, r, m, d) of a * sigma_{r,m}(k/d),
    a term vanishing where d does not divide k.  Each distinct (r, m) is
    sieved once, in the order of the terms, sigma_{0,1} by ``sigma_table``."""

    def kernel(t):
        order, sieves = t.order, {}
        table = [0] * (order + 1)
        for a, r, m, d in terms:
            if (r, m) not in sieves:
                sieves[r, m] = sigma_table(order) if m == 1 else sigma_rm_table(order, r, m)
            table[::d] = map(add, table[::d], map(a.__mul__, sieves[r, m][: order // d + 1]))
        return table

    return kernel


_sigma = _divisor_kernel((1, 0, 1, 1))
_odd_minus_even = _divisor_kernel((1, 1, 2, 1), (-1, 0, 2, 1))
# sigma + sigma_odd, which is even: sigma_even + 2 sigma_odd.
_sigma_plus_odd = _divisor_kernel((1, 0, 1, 1), (1, 1, 2, 1))
_eta_quotient_h = _divisor_kernel((1, 0, 1, 1), (-5, 0, 1, 2), (4, 0, 1, 4))


def _minus_half(t):
    return [-v // 2 for v in t(_sigma_plus_odd)]


def _partitions(t):
    return partition_counts(t.order)


def _cubic(t):
    """a(n) by its divisor-sum formula, a(0) = 1."""
    return [lambert_cubic_by_divisors(n) for n in range(t.order + 1)]


def _cubic_sieved(t):
    """a(n) by the Lambert double sum, one sieve to N, a(0) = 1."""
    return lambert_cubic_prefix(t.order)


def _cubic_shifted(t):
    """The coefficients of x * prod(...): a(n) for n >= 1, 0 at n = 0."""
    return [0] + t(_cubic)[1:]


def _oracle_recurrence(
    ident: str, oracle: Table, spec: ProductSpec, kernel: Table, scale: int = 1
) -> Identity:
    """n f(n) = scale * sum_{k=1..n} kernel[k] f(n-k) for an oracle f, which
    is also pinned to the expansion of its product ``spec``."""
    return Identity(
        ident,
        pins=(Pin(oracle, _expansion(spec)),),
        relation=Relation(oracle, kernel, oracle, scale=scale),
    )


def p_regular(p: int) -> Identity:
    """f counts the partitions whose parts repeat fewer than p times."""
    return _oracle_recurrence(
        f"p_regular_{p}",
        lambda t: regular_partition_counts(p, t.order),
        p_regular_spec(p),  # raises for p < 2
        _divisor_kernel((1, 0, 1, 1), (-1, 0, p, 1)),
    )


def rogers_ramanujan(which: int) -> Identity:
    """f is the sum side of the first or the second Rogers-Ramanujan identity."""
    r1, r2 = (1, 4) if which == 1 else (2, 3)
    return _oracle_recurrence(
        f"rogers_ramanujan_{which}",
        lambda t: rogers_ramanujan_sum_side(which, t.order),
        rogers_ramanujan_spec(which),  # raises unless which is 1 or 2
        _divisor_kernel((1, r1, 5, 1), (1, r2, 5, 1)),
    )


def delta(m: int) -> Identity:
    """f counts the representations by m triangular numbers (the theta power,
    by Miller's recurrence over the triangular places); the kernel is
    sigma_odd - sigma_even, scaled by m.  The product formula and the relation
    hold for every m >= 1."""
    return _oracle_recurrence(
        f"delta_{m}",
        lambda t: triangular_rep_counts(m, t.order),
        delta_spec(m),  # raises unless m is a positive int
        _odd_minus_even,
        scale=m,
    )


def p_regular_verbatim(p: int) -> Identity:
    """The reciprocal of the p-regular product, prod (1-x^n)(1-x^{pn})^{-1},
    expanded against the p-regular partition oracle.  Known failing: the
    reciprocal has negative coefficients, so the first mismatch is n=1."""
    reciprocal = ProductSpec(
        tuple(Factor(f.set, WeightSpec.linear(-f.weight.c)) for f in p_regular_spec(p).factors)
    )
    return Identity(
        f"p_regular_verbatim_{p}",
        expected=FAIL,
        pins=(Pin(lambda t: regular_partition_counts(p, t.order), _expansion(reciprocal)),),
    )


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------

CATALOG: tuple[Identity, ...] = (
    # n p(n) = sum_{k=1..n} sigma(k) p(n-k), with p from the pentagonal recurrence.
    Identity("partition_recurrence", relation=Relation(_partitions, _sigma, _partitions)),
    # (-1)^n s(n) n = -(sigma(n)+sigma_odd(n))/2
    #   + sum_{k>=1, k^2<=n-1} (-1)^(k+1) (sigma(n-k^2)+sigma_odd(n-k^2)).
    Identity(
        "jacobi_square",
        relation=Relation(
            _alternating_squares, _square_signs, _sigma_plus_odd, diagonal=_minus_half
        ),
    ),
    # t(n) n = sum over triangular T(k) <= n-1 of sigma_odd(n-T(k)) - sigma_even(n-T(k)).
    Identity("triangular", relation=Relation(_triangulars, _triangulars, _odd_minus_even)),
    # (n-1) a(n) = 8 sum_{k=1..n-1} a(n-k) (sigma_odd(k)-sigma_even(k)) for
    # n >= 2, the recurrence reindexed for the x^1 prefactor of the product;
    # a(n) itself is pinned three ways (divisor sum, double sum, recurrence).
    Identity(
        "ramanujan_a",
        min_order=2,
        pins=(
            Pin(_cubic, _cubic_sieved),
            Pin(_cubic_shifted, lambda t: coeffs_via_recurrence(ramanujan_spec(), t.order).coeffs),
        ),
        relation=Relation(_cubic, _odd_minus_even, _cubic_shifted, scale=8, shift=1, start=2),
    ),
    *(p_regular(p) for p in (2, 3, 5, 7)),
    *(rogers_ramanujan(which) for which in (1, 2)),
    # n s(n) = h(n) + 2 sum_{k^2 <= n-1} h(n-k^2), with the eta quotient's
    # expansion pinned to 1 + 2 sum x^{n^2}.
    Identity(
        "square_eta_quotient",
        pins=(Pin(_theta, _expansion(square_quotient_spec())),),
        relation=Relation(_squares, _theta, _eta_quotient_h),
    ),
    *(delta(m) for m in (1, 2, 4, 6, 8, 10, 12)),
    # The square identity summed over the full range k = 1..n-1, zero
    # arguments contributing via the extended divisor sum (sigma(0)=1,
    # odd-divisor sum 0); pins the strict positive-argument bound of
    # jacobi_square.  From n = 2 on, k <= n-1 covers every k^2 <= n, which
    # is the convolution; at n = 1 the range is empty and a k^2 <= n form
    # would gain a term, so the relation starts at n = 2.  First failure n=4.
    Identity(
        "jacobi_square_verbatim",
        expected=FAIL,
        relation=Relation(
            _alternating_squares,
            _square_signs,
            lambda t: [1] + t(_sigma_plus_odd)[1:],
            diagonal=_minus_half,
            start=2,
        ),
    ),
    # n a(n) = 8 sum_{k=0..n-1} a(k) (sigma_odd(n-k)-sigma_even(n-k)): the
    # recurrence without the shift reindexing.  First failure n=2 (16 vs 0).
    Identity(
        "ramanujan_a_verbatim",
        expected=FAIL,
        min_order=2,
        relation=Relation(_cubic_sieved, _odd_minus_even, _cubic_sieved, scale=8, start=2),
    ),
    p_regular_verbatim(2),
)

ALL_CHECKS: dict[str, Callable[[int], IdentityReport]] = {r.id: r.check for r in CATALOG}


def run_check(identity_id: str, order: int) -> IdentityReport:
    try:
        check = ALL_CHECKS[identity_id]
    except KeyError:
        shown = _shown(identity_id) if isinstance(identity_id, str) else repr(identity_id)
        raise ValueError(f"unknown identity {shown}; known: {', '.join(sorted(ALL_CHECKS))}")
    return check(order)


def run_all(order: int) -> list[IdentityReport]:
    """Every expected-to-pass check, reports ordered by identity id.  Expected
    failures are runnable by id but excluded from "all"."""
    return [run_check(i, order) for i in sorted(r.id for r in CATALOG if r.expected == PASS)]
