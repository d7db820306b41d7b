"""Exact truncated formal power series over arbitrary-precision rationals.

A series of order N carries coefficients for x^0 .. x^N inclusive and nothing
beyond.  All arithmetic is exact: coefficients are Python ints or
`fractions.Fraction` values (always in lowest terms, positive denominator),
and no floating point is used anywhere.  Binary operations on series of
different orders truncate to the smaller order, so precision loss is always
explicit in the result's order.

Instances are immutable; every operation is a pure function returning a new
series, so values can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Iterator, Sequence, Union

Coefficient = Union[int, Fraction]


def convolve(
    kernel: Sequence[Coefficient], operand: Sequence[Coefficient], start: int, order: int
) -> Iterator[Coefficient]:
    """sum_k kernel[k] * operand[n - k] for n = start..order, one n at a time.

    This is the one schoolbook convolution; the recurrence in
    ``products.coeffs_via_recurrence`` keeps its own loop on purpose.  Only
    the kernel's nonzero terms are visited, in ascending k, and the walk
    stops once k > n: a dense divisor-sum kernel costs O(N^2) in all, one
    supported on the squares or the triangular numbers O(N^1.5).

    The operand may be fixed, or filled online: the caller writes
    operand[n] after it receives the n-th sum.  This works because
    operand[m] is read only when a sum needs it, and it requires
    kernel[0] == 0, so that the n-th sum reads operand[0..n-1] only.
    """
    terms = [(k, h) for k, h in enumerate(kernel) if h]
    for n in range(start, order + 1):
        acc = 0
        for k, h in terms:
            if k > n:
                break
            acc += h * operand[n - k]
        yield acc


def sparse_table(order: int, place, coeff=lambda k: 1) -> list[Coefficient]:
    """coeff(k) at place(k) for k = 0, 1, ... while place(k) <= order (place
    increasing), zero elsewhere: a table supported on the squares k*k, the
    triangular numbers T(k), ..."""
    table = [0] * (order + 1)
    k = 0
    while place(k) <= order:
        table[place(k)] = coeff(k)
        k += 1
    return table


class TruncatedSeries:
    """A formal power series truncated at a fixed order.

    ``coeffs`` has length ``order + 1``; index i holds the coefficient of x^i.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coefficient], order: int | None = None):
        cs = tuple(coeffs)
        if order is not None:
            if order < 0:
                raise ValueError("order must be nonnegative")
            if len(cs) > order + 1:
                raise ValueError(
                    f"{len(cs)} coefficients exceed order {order}"
                )
            if len(cs) < order + 1:
                cs = cs + (0,) * (order + 1 - len(cs))
        elif not cs:
            raise ValueError("a truncated series needs at least the x^0 coefficient")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1,) + (0,) * order)

    def __getitem__(self, i: int) -> Coefficient:
        return self.coeffs[i]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self) -> Iterator[Coefficient]:
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries(tuple(a[i] + b[i] for i in range(n + 1)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return TruncatedSeries(tuple(a[i] - b[i] for i in range(n + 1)))

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(tuple(other * c for c in self.coeffs))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.order, other.order)
        # Cauchy product with the sparser operand as the kernel (self on a
        # tie), so products against binomial/theta factors stay cheap.
        kernel, operand = self.coeffs[: n + 1], other.coeffs[: n + 1]
        if kernel.count(0) < operand.count(0):
            kernel, operand = operand, kernel
        return TruncatedSeries(tuple(convolve(kernel, operand, 0, n)))

    def __rmul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse up to this series' order.

        Forward substitution on a0*b_i = -sum_{k=1}^{i} a_k b_{i-k}, the
        sums taken by ``convolve`` with b as its online operand.
        Raises ValueError if the constant term is zero.
        """
        a = self.coeffs
        a0 = a[0]
        if a0 == 0:
            raise ValueError("not invertible as a formal series: zero constant term")
        if a0 == 1:
            inv0: Coefficient = 1
        elif a0 == -1:
            inv0 = -1
        else:
            inv0 = Fraction(1) / a0
        n = self.order
        b: list[Coefficient] = [0] * (n + 1)
        b[0] = inv0
        for i, s in enumerate(convolve((0,) + a[1:], b, 1, n), 1):
            if s:
                b[i] = -(inv0 * s)
        return TruncatedSeries(tuple(b))

    def shift(self, s: int) -> "TruncatedSeries":
        """Multiply by x^s: coefficients move up s slots, order stays fixed,
        and the top s coefficients fall off the truncation edge."""
        if s < 0:
            raise ValueError("shift must be nonnegative")
        if s == 0:
            return self
        n = self.order
        kept = self.coeffs[: max(n + 1 - s, 0)]
        return TruncatedSeries((0,) * min(s, n + 1) + kept)

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop coefficients above ``order`` (which must not exceed self.order)."""
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1])

    def is_integral(self) -> bool:
        """True when every coefficient has denominator 1."""
        return all(c.denominator == 1 for c in self.coeffs)


def binomial_factor(n: int, e: int, order: int) -> TruncatedSeries:
    """Expansion of (1 - x^n)^e to the given order, for any integer e.

    e >= 0 expands by the binomial theorem; e < 0 by the negative-binomial
    series sum_k C(k+|e|-1, |e|-1) x^(n*k).  Coefficients are integers.
    """
    if n < 1:
        raise ValueError("factor degree n must be >= 1")
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = [0] * (order + 1)
    if e >= 0:
        for k in range(min(e, order // n) + 1):
            out[n * k] = -comb(e, k) if k % 2 else comb(e, k)
    else:
        q = -e
        for k in range(order // n + 1):
            out[n * k] = comb(k + q - 1, q - 1)
    return TruncatedSeries(tuple(out))


def apply_binomial_factor(coeffs: list, n: int, e: int) -> None:
    """Multiply a coefficient list in place by (1 - x^n)^e, e any integer.

    Each (1 - x^n) application is c[i] -= c[i-n] taken downward; each inverse
    application is the prefix recurrence c[i] += c[i-n] taken upward.  Exact,
    and equivalent to a Cauchy product with binomial_factor(n, e, order).
    """
    if n < 1:
        raise ValueError("factor degree n must be >= 1")
    top = len(coeffs) - 1
    if e >= 0:
        for _ in range(e):
            for i in range(top, n - 1, -1):
                coeffs[i] -= coeffs[i - n]
    else:
        for _ in range(-e):
            for i in range(n, top + 1):
                coeffs[i] += coeffs[i - n]


def _pack(coeffs: list[int], width: int) -> int:
    """sum c_i * 256**(width*i): the positive and the negative parts are
    packed as unsigned slots and the second is subtracted from the first."""
    pos = b"".join((c if c > 0 else 0).to_bytes(width, "little") for c in coeffs)
    neg = b"".join((-c if c < 0 else 0).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def kronecker_mul(a: list[int], b: list[int], order: int) -> list[int]:
    """Coefficients 0..order of the product of the integer polynomials a and b.

    Kronecker substitution: each operand is packed into one int with a
    coefficient per ``width``-byte slot, the two ints are multiplied once,
    and the low order+1 slots are read back.  A slot holds a coefficient of
    the product exactly when its magnitude stays below half the slot, which
    the width guarantees from max|a| * max|b| * (number of terms in a sum).
    Adding half a slot to every digit makes each one nonnegative, so the
    borrows of negative coefficients resolve before unpacking.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    square = b is a
    a, b = a[: order + 1], b[: order + 1]
    bound = max(map(abs, a), default=0) * max(map(abs, b), default=0)
    if not bound:
        return [0] * (order + 1)
    bound *= min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8  # one spare bit for the sign
    packed = _pack(a, width)
    product = packed * packed if square else packed * _pack(b, width)
    size = width * (order + 1)
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * (order + 1), "little")
    low = (product + bias) & ((1 << (8 * size)) - 1)
    raw = memoryview(low.to_bytes(size, "little"))
    return [
        int.from_bytes(raw[i : i + width], "little") - half
        for i in range(0, size, width)
    ]


def kronecker_pow(a: list[int], e: int, order: int) -> list[int]:
    """Coefficients 0..order of a**e for an integer polynomial a and e >= 0,
    by repeated squaring through kronecker_mul."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = None
    base = (list(a) + [0] * order)[: order + 1]
    while e:
        if e & 1:
            result = base if result is None else kronecker_mul(result, base, order)
        e >>= 1
        if e:
            base = kronecker_mul(base, base, order)
    return [1] + [0] * order if result is None else result
